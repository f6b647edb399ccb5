"""PoseScorer.score equals a per-proposal brute force, bit for bit.

The scorer shares heading-only work across runs of equal headings and
packs the rest into chunks; neither may change a single log-likelihood
bit or points-scored count.  The reference below scores one proposal at
a time with the scorer's float32 arithmetic written out step by step.

Chunks of distinct headings are scored on as many threads as the
process has CPUs; neither the scores nor the particle filter's estimates
and particles may depend on the number of threads.  Scoring runs under a
small ufunc buffer on every thread, the caller's size restored after:
no result may depend on the size a caller set.

Grid search and uniform sampling score only the blocks of proposals
whose upper bound reaches the k-th best score, bounding fine blocks only
inside the coarse blocks whose bound reaches it; their estimates must
equal, bit for bit, the ones built from scoring every proposal.

Every log the scorer sums is rounded to a multiple of 2**-q, so float64
sums of a frame's logs are exact in any order: the scorer adds the logs
of points outside the z range as one constant, and no block bound falls
below a score of its block.  The reference rounds its logs on its own.

Points that every proposal of a span keeps inside the box are scored
without the box test, and the other (edge) points with it; each row adds
its partial sums.  A grid's runs of one heading, which read their
heading's row, are certified together; distinct headings, sorted by
heading, in chunks certified each over its own span, where a point whose
x voxel no proposal of the chunk changes is fast: it reaches the kernel
with its x index, and no x is computed for it.  A concentrated particle
set and a narrow grid take this split; a wide heading span does not.
Points one float32 step either side of the certified slack, points
within a rounding margin of an x voxel face, and points that an extreme
particle or float32 rounding moves out of the box, must score as the
reference does.

Certified points that every proposal places in a y band, the leading or
trailing y slabs of the log table whose entries all hold one log, enter
no kernel: each adds that log once per row and counts as scored.  Points
on and one float32 step either side of a band edge, and spans that carry
points across it, must score as the reference does, also where the
band's float32 no-info frequency logs one step off the no-info slot.
"""

import gc
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import camera_cloud_at, grid_poses, make_wall_cloud_T
from rowloc import geometry, mcl, measurement
from rowloc.geometry import (
    Box3,
    PointCloud,
    PreprocessConfig,
    PreprocessedFrame,
    rotation_from_euler,
)
from rowloc.mcl import (
    FLAG_EMPTY_MEASUREMENT,
    MclConfig,
    OdometryDelta,
    UniformPrior,
    _empty_estimate,
    _make_estimate,
    init_particles,
    localize_grid,
    localize_pf,
    localize_uniform,
)
from rowloc.measurement import (
    _CHUNK,
    _COARSE_HEADINGS,
    _FIRST_SPLIT,
    _MIN_RUN,
    _ROT_SLACK,
    _ROUND,
    PoseScorer,
    _coarse_groups,
    _proposal_blocks,
    _y_bins,
    log_table,
)
from rowloc.template import GroundTruthPose, Template, TemplateConfig, build_template

F32 = np.float32
# grid-sweep's derived no-info frequency (seed 5): not float32-exact, and the
# fixed-point log of its float32 value lies one 2**-20 step from its own
GRID_SWEEP_NO_INFO = 0.024824024213813505


def fixed_point(logs, template, p_floor):
    """float64 logs rounded to the nearest multiple of 2**-q, q the largest
    value at which |log(p_floor)| * 2**q lies below 2**24.  Every frequency
    lies in [0, 1], so no |log| of the table is larger."""
    assert template.grid.max() <= 1.0 and template.no_info_frequency <= 1.0
    q = 60
    while abs(math.log(p_floor)) * 2.0**q >= 2.0**24:
        q -= 1
    return np.rint(np.asarray(logs) * 2.0**q) / 2.0**q


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

    log_no_info = fixed_point(math.log(max(template.no_info_frequency, p_floor)), template,
                              p_floor)
    logs = np.full(qx.shape[0], log_no_info)
    sel = keep & on_grid
    ix = np.minimum(np.floor(fx[sel]).astype(np.int64), nx - 1)
    iy = np.minimum(np.floor(fy[sel]).astype(np.int64), ny - 1)
    iz = np.clip(np.floor((qz[sel] - lo[2]) / res).astype(np.int64), 0, nz - 1)
    iz[qz[sel] == hi[2]] = nz - 1
    freq = template.grid[ix, iy, iz].astype(np.float64)
    logs[sel] = fixed_point(np.log(np.maximum(freq, p_floor)), template, p_floor)
    # every log is exact in float32, and the float64 sum is exact in any order
    assert np.all(logs.astype(F32) == logs)
    return logs.sum(), int(np.count_nonzero(keep))


# extents that are not multiples of the resolution
TEMPLATE_RANGE = Box3.from_ranges((-0.05, 4.0), (-2.07, 2.0), (0.0, 2.0))
ROW_RANGE = Box3.from_ranges((0.0, 4.0), (-1.0, 1.0), (0.0, 2.0))
# the float32 frequency next below 1: its log, about -2**-24, has a float32
# ulp of 2**-47, far below any multiple of 2**-q that the table holds
NEAR_ONE = F32(1.0 - 2.0**-24)


def heading_runs(draw):
    """Runs of equal headings (some past the chunk size) between distinct ones."""
    runs = draw(st.lists(
        st.tuples(st.integers(1, 140), st.floats(-0.8, 0.8, allow_subnormal=False)),
        min_size=1, max_size=8,
    ))
    return np.concatenate([np.full(k, th) for k, th in runs])


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
    grid.flat[rng.integers(0, grid.size, 3)] = NEAR_ONE
    template = Template(cfg, grid, 10)

    # the empty cloud too
    n = draw(st.one_of(st.just(0), st.integers(14, 80)))
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(n, 3))
    if n and draw(st.booleans()):
        # snap some coordinates onto voxel faces and the grid's outer faces
        snap = rng.uniform(size=pts.shape) < 0.3
        pts[snap] = np.round(pts[snap] / res) * res
    tilt = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.03, -0.02, 0.9)]))
    frame = PreprocessedFrame(PointCloud(pts, "V"), *tilt)

    thetas = heading_runs(draw)
    ys = rng.uniform(-1.0, 1.0, thetas.size)
    on_face = rng.uniform(size=ys.size) < 0.2
    ys[on_face] = np.round(ys[on_face] / res) * res
    p_floor = draw(st.sampled_from([1e-4, 1e-2]))
    return frame, template, p_floor, ys, thetas


def assert_scores_equal_reference(scorer, frame, ys, thetas):
    template, p_floor = scorer.template, scorer.p_floor
    ll, ns = scorer.score(ys, thetas)
    expected = [reference_score(frame, template, p_floor, y, th) for y, th in zip(ys, thetas)]
    want_ll = np.array([e[0] for e in expected])
    want_ns = np.array([e[1] for e in expected], dtype=np.int64)
    np.testing.assert_array_equal(ll.view(np.int64), want_ll.view(np.int64))
    np.testing.assert_array_equal(ns, want_ns)


@settings(max_examples=60, deadline=None)
@given(scenes())
def test_score_equals_per_proposal_reference(scene):
    frame, template, p_floor, ys, thetas = scene
    scorer = PoseScorer(frame, template, p_floor)
    assert_scores_equal_reference(scorer, frame, ys, thetas)


@st.composite
def frequency_scenes(draw):
    """A template of frame-count frequencies k / n_frames, as
    `build_template` makes them, and a cloud with points on and beyond
    the z faces, or wholly outside the z range."""
    res = draw(st.sampled_from([0.1, 0.25, 0.3]))
    cfg = TemplateConfig(resolution=res, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=draw(st.floats(1e-3, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.sampled_from([1, 3, 10, 100, 300]))
    counts = rng.integers(0, n_frames + 1, cfg.dims)
    counts[rng.uniform(size=cfg.dims) < 0.5] = 0
    freq = np.where(cfg.in_row_mask(), counts / float(n_frames), cfg.no_info_frequency)
    template = Template(cfg, freq, n_frames)

    n = draw(st.integers(1, 300))
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(n, 3))
    lo_z, hi_z = TEMPLATE_RANGE.min_corner[2], TEMPLATE_RANGE.max_corner[2]
    kind = draw(st.sampled_from(["mixed", "z-faces", "all-outside-z"]))
    if kind == "z-faces":
        # on each z face, and one float64 step inside and outside each
        faces = [lo_z, hi_z, np.nextafter(lo_z, -1.0), np.nextafter(hi_z, 3.0),
                 np.nextafter(lo_z, 1.0), np.nextafter(hi_z, 1.0)]
        pick = rng.uniform(size=n) < 0.6
        pts[pick, 2] = rng.choice(faces, int(pick.sum()))
    elif kind == "all-outside-z":
        pts[:, 2] = np.where(rng.uniform(size=n) < 0.5, rng.uniform(-0.5, -1e-9, n),
                             rng.uniform(hi_z + 1e-9, 2.5, n))
    tilt = (0.0, 0.0, 0.0)  # level at height 0: the scorer's z is the point's own
    if kind == "mixed":
        tilt = draw(st.sampled_from([tilt, (0.03, -0.02, 0.9)]))
    frame = PreprocessedFrame(PointCloud(pts, "V"), *tilt)

    thetas = heading_runs(draw)
    ys = rng.uniform(-1.0, 1.0, thetas.size)
    p_floor = draw(st.sampled_from([1e-4, 1e-2]))
    return frame, template, p_floor, ys, thetas, kind


@settings(max_examples=60, deadline=None)
@given(frequency_scenes())
def test_score_with_out_of_z_points_summed_as_one_constant_equals_reference(scene):
    frame, template, p_floor, ys, thetas, kind = scene
    scorer = PoseScorer(frame, template, p_floor)
    qz = (frame.cloud_V.points @ rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation.T
          )[:, 2] + frame.height
    lo_z, hi_z = TEMPLATE_RANGE.min_corner[2], TEMPLATE_RANGE.max_corner[2]
    assert scorer._qx32.size == np.count_nonzero((qz >= lo_z) & (qz <= hi_z))
    if kind == "all-outside-z":
        assert scorer._qx32.size == 0
    assert_scores_equal_reference(scorer, frame, ys, thetas)


def test_block_bounds_are_the_scores_on_a_constant_grid():
    """Every voxel and the no-info slot hold one log, so each block's bound,
    fine or coarse, sums what each of its proposals sums, the points outside
    the z range included: bit for bit the same exact sum."""
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.5)
    template = Template(cfg, np.full(cfg.dims, 0.5, dtype=F32), 10)
    rng = np.random.default_rng(2)
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(50, 3))
    scorer = PoseScorer(PreprocessedFrame(PointCloud(pts, "V"), 0.0, 0.0, 0.0), template)
    assert scorer._qx32.size < 50
    poses = mcl.sample_uniform(MclConfig().prior, 400, seed=1)
    ys, thetas = poses[:, 0], poses[:, 1]
    ll, _ = scorer.score(ys, thetas)
    assert np.all(ll == 50 * scorer.log_no_info)
    res = cfg.resolution
    r_max = float(np.hypot(scorer._qx32, scorer._qy32, dtype=np.float64).max())
    width = 2.0 * _ROT_SLACK * res / max(r_max, res)
    _, y_lo, middle, n_shared, rot_slack = _proposal_blocks(ys, thetas, width, res)
    assert rot_slack == _ROT_SLACK  # distinct headings: wide heading bins
    y_bin, per_coarse = _y_bins(rot_slack)
    group, centres = _coarse_groups(middle, n_shared, width)
    coarse_y_lo = np.minimum.reduceat(y_lo, np.arange(0, y_lo.size, per_coarse))
    # fine blocks, then coarse ones; a margin of 0.01 voxels
    for heads, lows, rot, y_extent in (
        (middle, y_lo, rot_slack, y_bin),
        (centres, coarse_y_lo, _COARSE_HEADINGS * _ROT_SLACK, per_coarse * y_bin),
    ):
        slack, pooled = scorer._bound_table(0.01, rot, y_extent)
        bounds = scorer._block_bounds(heads, lows, np.arange(heads.size * lows.size), slack,
                                      pooled)
        assert bounds.tobytes() == np.full(bounds.size, ll[0]).tobytes()


def test_a_frequency_next_below_one_has_a_log_of_exactly_zero():
    """NEAR_ONE's log, about -2**-24, rounds to 0 at q = 20; the points
    outside the z range leave the kernel, and every score is the
    reference's."""
    cfg = TemplateConfig(resolution=0.25, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.02)
    rng = np.random.default_rng(5)
    grid = np.full(cfg.dims, 0.5, dtype=F32)
    grid[rng.uniform(size=cfg.dims) < 0.5] = NEAR_ONE
    template = Template(cfg, grid, 10)
    pts = rng.uniform([-0.5, -2.5, -0.5], [4.5, 2.5, 2.5], size=(40, 3))
    pts[:5, 2] = [0.0, 2.0, -0.1, 2.1, 2.5]
    frame = PreprocessedFrame(PointCloud(pts, "V"), 0.0, 0.0, 0.0)
    scorer = PoseScorer(frame, template)
    assert math.log(NEAR_ONE) != 0.0
    assert np.all(scorer.tables.table[1:].reshape(cfg.dims)[grid == NEAR_ONE] == 0.0)
    in_z = (pts[:, 2] >= 0.0) & (pts[:, 2] <= 2.0)
    assert scorer._qx32.size == np.count_nonzero(in_z) < 40
    thetas = np.repeat(rng.uniform(-0.5, 0.5, 6), [1, 20, 1, 1, 9, 3])
    ys = rng.uniform(-1.0, 1.0, thetas.size)
    assert_scores_equal_reference(scorer, frame, ys, thetas)


def test_a_frame_past_the_point_limit_is_refused(monkeypatch):
    """Past _MAX_POINTS points float64 sums of the logs need not be exact."""
    monkeypatch.setattr(measurement, "_MAX_POINTS", 10)
    cfg = TemplateConfig(resolution=0.25, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.02)
    template = Template(cfg, np.full(cfg.dims, 0.5, dtype=F32), 10)
    pts = np.tile([[1.0, 0.0, 1.0]], (11, 1))
    assert PoseScorer(PreprocessedFrame(PointCloud(pts[:10], "V"), 0.0, 0.0, 0.0),
                      template).n_points == 10
    with pytest.raises(ValueError, match="at most 10 points, got 11"):
        PoseScorer(PreprocessedFrame(PointCloud(pts, "V"), 0.0, 0.0, 0.0), template)


@pytest.mark.parametrize("far", [3e8, -1e15])
def test_a_point_too_far_for_an_int32_index_scores_as_outside_the_box(far):
    """A point 2**30 voxels or more off on an axis would overflow the
    kernel's int32 index: it leaves the kernel, read as no-info by every
    proposal, as the reference's box test leaves it unscored."""
    template = interior_template()
    frame = interior_frame([(2.0, 0.0), (1.5, far), (far, 0.3)], far=False)
    scorer = PoseScorer(frame, template)
    assert scorer._qx32.size == 1
    ys, thetas = np.linspace(-0.5, 0.5, 20), np.repeat([0.1, 0.3], 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_scores_equal_reference(scorer, frame, ys, thetas)
        assert_scores_equal_reference(scorer, frame, ys[::2], thetas[::2])


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_heading_cells_are_scored_chunk_at_a_time(workers):
    """A grid call's shared-heading runs (past _CHUNK, and of just
    _MIN_RUN), certified together over their own span, fill kernel calls
    of each pass's chunk across runs, beside distinct-heading chunks: each
    shared cell is scored once a pass, and scores as the reference does."""
    cfg = TemplateConfig(resolution=0.1, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.05)
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 11, cfg.dims)
    template = Template(cfg, counts / 10.0, 10)
    pts = rng.uniform([-0.5, -2.5, -0.5], [4.5, 2.5, 2.5], size=(120, 3))
    frame = PreprocessedFrame(PointCloud(pts, "V"), 0.02, 0.01, 0.3)
    # (cells, shared): runs of one heading, or as many distinct headings
    segments = [(_CHUNK + 45, True), (_MIN_RUN, True), (2, False), (_MIN_RUN, True),
                (2 * _CHUNK + 3, True), (2 * _CHUNK + 5, False), (_MIN_RUN, True),
                (_MIN_RUN - 1, False)]
    thetas = np.concatenate([
        np.full(k, rng.uniform(-0.6, 0.6)) if shared else rng.uniform(-0.6, 0.6, k)
        for k, shared in segments
    ])
    ys = rng.uniform(-1.0, 1.0, thetas.size)
    in_run = np.concatenate([np.full(k, shared) for k, shared in segments])
    calls = {}  # the ys of each shared-heading call, by (masked, points) of its pass
    score_block = PoseScorer._score_block

    def recorded(self, cos_t, sin_t, ys, row, points, masked):
        if row is not None:
            calls.setdefault((masked, points[0].size), []).append(ys)
        return score_block(self, cos_t, sin_t, ys, row, points, masked)

    scorer = PoseScorer(frame, template)
    inside, band = scorer._interior(ys[in_run], thetas[in_run])
    assert not band.any()
    kernel = scorer._qx32.size
    passes = [(True, kernel)] if not inside.any() else [
        (masked, k) for masked, k in ((False, inside.sum()), (True, (~inside).sum())) if k
    ]
    with scoring_workers(workers), mock.patch.object(PoseScorer, "_score_block", recorded):
        assert_scores_equal_reference(scorer, frame, ys, thetas)
        assert (measurement._pool is not None) == (workers > 1)
    assert sorted(calls) == sorted(passes)
    n_shared = int(in_run.sum())
    for (masked, k), chunks in calls.items():
        step = max(_CHUNK, _CHUNK * kernel // k)
        want = [step] * (n_shared // step) + ([n_shared % step] if n_shared % step else [])
        assert sorted(len(c) for c in chunks) == sorted(want)
        np.testing.assert_array_equal(np.sort(np.concatenate(chunks)), np.sort(ys[in_run]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("far", [False, True])
def test_a_grid_call_scores_its_certified_points_unmasked(workers, far):
    """A theta-major grid about (y 0.1, heading 0.2), narrow enough that
    every point but the far one is certified, scores its shared-heading
    cells in an unmasked pass over the interior points, and (with the
    far point) a masked pass over the edge point, as the reference does."""
    template = interior_template()
    rng = np.random.default_rng(24)
    frame = interior_frame(sensor_points(rng.uniform([1.0, -0.8], [2.8, 0.8], (60, 2)),
                                         0.1, 0.2), far=far)
    headings = 0.2 + 0.01 * np.arange(-3, 4)
    offsets = 0.1 + 0.005 * np.arange(-20, 21)
    tt, yy = np.meshgrid(headings, offsets, indexing="ij")
    ys, thetas = yy.ravel(), tt.ravel()
    calls = []
    score_block = PoseScorer._score_block

    def recorded(self, cos_t, sin_t, ys, row, points, masked):
        calls.append((row is not None, masked, points[0].size))
        return score_block(self, cos_t, sin_t, ys, row, points, masked)

    scorer = PoseScorer(frame, template)
    assert scorer._interior(ys, thetas)[0].tolist() == [True] * 60 + [False] * far
    with scoring_workers(workers), mock.patch.object(PoseScorer, "_score_block", recorded):
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    # 287 cells: three chunks of the interior pass, one of the edge pass
    want = [(True, False, 60)] * 3 + [(True, True, 1)] * far
    assert sorted(calls) == sorted(want)


@contextmanager
def scoring_workers(n, min_rows=1):
    """Score on n threads, the caller's included, every call with min_rows
    or more distinct-heading rows; a pool started meanwhile is shut down
    after."""
    with mock.patch.object(measurement, "_WORKERS", n), \
            mock.patch.object(measurement, "_MIN_THREADED_ROWS", min_rows), \
            mock.patch.object(measurement, "_pool", None):
        try:
            yield
        finally:
            if measurement._pool is not None:
                measurement._pool.shutdown()


@st.composite
def worker_scenes(draw):
    """A scene with runs of equal headings, distinct headings filling 1 to
    11 threaded chunks, consecutive duplicates (as resampled particles
    are), or one proposal."""
    frame, template, p_floor, ys, thetas = draw(scenes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["runs", "distinct", "duplicates", "one"]))
    if kind == "distinct":
        n = draw(st.integers(1, 10 * _CHUNK + 1))
        ys, thetas = rng.uniform(-1.0, 1.0, n), rng.uniform(-0.8, 0.8, n)
    elif kind == "duplicates":
        n = draw(st.integers(2, 6 * _CHUNK))
        src = np.sort(rng.integers(0, max(1, n // draw(st.sampled_from([2, _MIN_RUN]))), n))
        ys, thetas = rng.uniform(-1.0, 1.0, n)[src], rng.uniform(-0.8, 0.8, n)[src]
    elif kind == "one":
        ys, thetas = ys[:1], thetas[:1]
    return frame, template, p_floor, ys, thetas, kind


@settings(max_examples=60, deadline=None)
@given(worker_scenes())
def test_score_does_not_depend_on_the_worker_count(scene):
    frame, template, p_floor, ys, thetas, kind = scene
    got = {}
    for n in (1, 2, 3):
        with scoring_workers(n):
            ll, ns = PoseScorer(frame, template, p_floor).score(ys, thetas)
            if n == 1:
                assert measurement._pool is None
            elif kind == "distinct" and ys.size > _CHUNK and frame.cloud_V.points.size:
                assert measurement._pool is not None
        got[n] = ll.view(np.int64).tolist(), ns.tolist()
    assert got[2] == got[1]
    assert got[3] == got[1]


@pytest.fixture(scope="module")
def wall_run():
    """A template taught on a wall scene, and frames from poses near it."""
    cloud_T = make_wall_cloud_T()
    poses = [(0.3 * math.sin(i), 0.1 * math.cos(1.7 * i)) for i in range(11)]
    clouds = [camera_cloud_at(cloud_T, y, th) for y, th in poses]
    pre = PreprocessConfig(leaf_size=0.1)
    truths = [GroundTruthPose(y=y, theta=th) for y, th in poses[:6]]
    template = build_template(clouds[:6], truths, TemplateConfig(), pre)
    return template, clouds[6:], MclConfig(pre_cfg=pre, n_particles=700)


def run_pf(template, clouds, cfg):
    """Five filter steps: each step's estimate and resampled particles."""
    particles = init_particles(cfg, seed=3)
    u = OdometryDelta(np.array([0.2, 0.0, 0.0]), np.diag([0.02**2, 0.02**2, 0.01**2]))
    out = []
    for i, cloud in enumerate(clouds):
        est, particles = localize_pf(cloud, particles, u, template, cfg, seed=40 + i)
        out.append((estimate_bits(est), particles.poses.view(np.int64).tolist(),
                    particles.weights.view(np.int64).tolist()))
    return out


def test_particle_filter_does_not_depend_on_the_worker_count(wall_run):
    template, clouds, cfg = wall_run
    with scoring_workers(1):
        one = run_pf(template, clouds, cfg)
        assert measurement._pool is None
    with scoring_workers(3):
        three = run_pf(template, clouds, cfg)
        assert measurement._pool is not None
    assert len(one) == 5
    assert three == one


def test_each_chunk_is_scored_once_under_frequent_thread_switches(wall_run):
    """More threads than CPUs, switching every microsecond: each chunk is
    taken by one thread only, so no row is lost or scored twice, in each
    pass over the points: the fast, interior and edge ones."""
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 40 * _CHUNK + 5, seed=7)
    assert np.unique(poses[:, 0]).size == len(poses)  # a row is known by its y
    want = [a.tobytes() for a in scorer.score(poses[:, 0], poses[:, 1])]
    rows = {}  # the ys scored in each pass, keyed by its kind
    score_block = PoseScorer._score_block
    lock = threading.Lock()  # the record itself must not lose an update

    def counted(self, cos_t, sin_t, ys, row, points, masked):
        kind = "edge" if masked else "interior" if points[3] is None else "fast"
        with lock:
            rows.setdefault(kind, []).append(ys)
        return score_block(self, cos_t, sin_t, ys, row, points, masked)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with scoring_workers(4), mock.patch.object(PoseScorer, "_score_block", counted):
            for _ in range(5):
                rows.clear()
                got = scorer.score(poses[:, 0], poses[:, 1])
                scored = {kind: np.concatenate(ys) for kind, ys in rows.items()}
                for ys in scored.values():
                    assert np.unique(ys).size == ys.size, "a row was scored twice in a pass"
                # the wall scene's near points are certified in every chunk,
                # its far ones at the edge
                assert np.sort(scored["edge"]).tobytes() == np.sort(poses[:, 0]).tobytes()
                unmasked = np.concatenate([scored.get(k, []) for k in ("fast", "interior")])
                assert np.unique(unmasked).tobytes() == np.sort(poses[:, 0]).tobytes()
                assert [a.tobytes() for a in got] == want
    finally:
        sys.setswitchinterval(interval)


def test_a_call_with_few_rows_is_scored_on_the_calling_thread(wall_run):
    """Below _MIN_THREADED_ROWS distinct-heading rows (a round of top-k
    pruning) no pool thread scores; at it, one does."""
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    few = measurement._MIN_THREADED_ROWS - 1
    poses = mcl.sample_uniform(cfg.prior, few + 1, seed=8)
    threads = set()
    score_block = PoseScorer._score_block

    def recorded(self, *args):
        threads.add(threading.current_thread())
        return score_block(self, *args)

    with scoring_workers(2, measurement._MIN_THREADED_ROWS), \
            mock.patch.object(PoseScorer, "_score_block", recorded):
        scorer.score(poses[:few, 0], poses[:few, 1])
        assert measurement._pool is None
        assert threads == {threading.main_thread()}
        for _ in range(20):
            scorer.score(poses[:, 0], poses[:, 1])
        assert measurement._pool is not None
        assert threads - {threading.main_thread()}, "no chunk was scored on a pool thread"


def test_score_does_not_wait_for_a_pool_thread_that_takes_no_chunk(wall_run):
    """A pool thread that gets no CPU until the call is over takes no chunk,
    and the call returns without it; it takes none of a later call."""
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 10 * _CHUNK + 3, seed=9)
    want = [a.tobytes() for a in scorer.score(poses[:, 0], poses[:, 1])]
    release = threading.Event()
    # a call that waited for the held thread would return only once this
    # timer lets it go, after the check below
    timer = threading.Timer(30.0, release.set)
    with scoring_workers(2):
        # the pool's one thread is held until the calls below are over
        measurement._scoring_pool().submit(release.wait)
        timer.start()
        try:
            for _ in range(3):
                got = scorer.score(poses[:, 0], poses[:, 1])
                assert [a.tobytes() for a in got] == want
            assert not release.is_set(), "score waited for a thread that took no chunk"
        finally:
            timer.cancel()
            release.set()
        measurement._pool.shutdown()  # the three late tasks were cancelled: none runs
        assert [a.tobytes() for a in got] == want


def pool_thread_takes_a_chunk(scored):
    """A `_score_block` that runs scored(self, args, on_pool), args being
    its own, and, on the calling thread, waits until a pool thread has
    taken a chunk, so one surely does."""
    pool_took_one = threading.Event()

    def score_block(self, *args):
        on_pool = threading.current_thread() is not threading.main_thread()
        if on_pool:
            pool_took_one.set()
        else:
            pool_took_one.wait(10.0)
        return scored(self, args, on_pool)

    return mock.patch.object(PoseScorer, "_score_block", score_block)


def test_an_error_on_a_pool_thread_is_raised_by_score(wall_run):
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 10 * _CHUNK, seed=10)
    score_block = PoseScorer._score_block

    class PoolThreadError(Exception):
        pass

    def failing(self, args, on_pool):
        if on_pool:
            raise PoolThreadError
        return score_block(self, *args)

    with scoring_workers(2), pool_thread_takes_a_chunk(failing):
        with pytest.raises(PoolThreadError):
            scorer.score(poses[:, 0], poses[:, 1])


def test_score_returns_after_every_chunk_a_pool_thread_took(wall_run):
    """A pool thread slowed inside `_score_block` has finished each chunk
    it took when `score` returns: no thread writes to the call's arrays
    after it."""
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 10 * _CHUNK, seed=11)
    want = [a.tobytes() for a in scorer.score(poses[:, 0], poses[:, 1])]
    events = []  # ("start" or "end", on a pool thread) of each call
    score_block = PoseScorer._score_block

    def slowed(self, args, on_pool):
        events.append(("start", on_pool))
        if on_pool:
            time.sleep(0.2)
        out = score_block(self, *args)
        events.append(("end", on_pool))
        return out

    with scoring_workers(2), pool_thread_takes_a_chunk(slowed):
        got = scorer.score(poses[:, 0], poses[:, 1])
        at_return = list(events)
    # the pool is shut down: every task has finished
    assert ("start", True) in at_return
    assert at_return == events, "a pool thread scored after score returned"
    assert at_return.count(("start", True)) == at_return.count(("end", True))
    assert [a.tobytes() for a in got] == want


# a caller's ufunc buffer size: numpy's default (None: left as it is), and
# two that it may have set
CALLER_BUFSIZES = [None, 16, 2**20]


@contextmanager
def caller_bufsize(size):
    """Run with the calling thread's ufunc buffer at `size`, and check that
    it holds that size after."""
    old = np.getbufsize()
    want = old if size is None else size
    np.setbufsize(want)
    try:
        yield
        assert np.getbufsize() == want, "the caller's buffer size was not restored"
    finally:
        np.setbufsize(old)


def scoring_bits(template, clouds, cfg):
    """The bits of `score` and `score_top_k` on uniform proposals, of
    `score_top_k` on a grid's, and of one particle-filter step."""
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    uniform = mcl.sample_uniform(cfg.prior, 2000, seed=12)
    grid = grid_poses(cfg, mcl.GRID_Y_STEP, mcl.GRID_THETA_STEP)
    calls = [scorer.score(uniform[:, 0], uniform[:, 1]),
             scorer.score_top_k(uniform[:, 0], uniform[:, 1], 5),
             scorer.score_top_k(grid[:, 0], grid[:, 1], 5)]
    for ll, _ in calls[1:]:
        assert np.isneginf(ll).any(), "the search pruned nothing"
    u = OdometryDelta(np.array([0.2, 0.0, 0.0]), np.diag([0.02**2, 0.02**2, 0.01**2]))
    est, particles = localize_pf(clouds[1], init_particles(cfg, seed=3), u, template, cfg,
                                 seed=13)
    return ([[a.tobytes() for a in call] for call in calls], estimate_bits(est),
            particles.poses.tobytes(), particles.weights.tobytes())


@pytest.mark.parametrize("bufsize", CALLER_BUFSIZES)
def test_scoring_does_not_depend_on_the_callers_buffer_size(wall_run, bufsize):
    """Scores, top-k searches and a particle-filter step are the same bits
    on 1 and 2 threads whatever ufunc buffer size the caller set, and the
    caller's size is the same after each call."""
    with scoring_workers(1):
        want = scoring_bits(*wall_run)
    for n in (1, 2):
        with scoring_workers(n), caller_bufsize(bufsize):
            assert scoring_bits(*wall_run) == want


@pytest.mark.parametrize("bufsize", CALLER_BUFSIZES)
def test_the_callers_buffer_size_is_restored_when_scoring_raises(wall_run, bufsize):
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 2000, seed=14)

    class KernelError(Exception):
        pass

    def failing(self, *args):
        raise KernelError

    for call in (scorer.score, lambda ys, thetas: scorer.score_top_k(ys, thetas, 5)):
        with caller_bufsize(bufsize), mock.patch.object(PoseScorer, "_score_block", failing):
            with pytest.raises(KernelError):
                call(poses[:, 0], poses[:, 1])


def test_every_scoring_thread_scores_under_the_small_buffer_and_restores_its_own(wall_run):
    """The kernel, on the calling thread and a pool thread, the bound pass
    and the certification run under a ufunc buffer of _BUFSIZE elements;
    the pool thread's own size is the same after its task as before."""
    template, clouds, cfg = wall_run
    scorer = mcl._scorer_for(clouds[0], template, cfg)
    poses = mcl.sample_uniform(cfg.prior, 2000, seed=15)
    seen = set()  # (method, on a pool thread, buffer size)
    pool_took_one = threading.Event()

    def recorded(name):
        fn = getattr(PoseScorer, name)

        def run(self, *args):
            on_pool = threading.current_thread() is not threading.main_thread()
            seen.add((name, on_pool, np.getbufsize()))
            if name == "_score_block":
                # the calling thread waits until a pool thread takes a chunk
                if on_pool:
                    pool_took_one.set()
                else:
                    pool_took_one.wait(10.0)
            return fn(self, *args)

        return mock.patch.object(PoseScorer, name, run)

    with scoring_workers(2), recorded("_score_block"), recorded("_block_bounds"), \
            recorded("_certify"):
        before = measurement._scoring_pool().submit(np.getbufsize).result()
        scorer.score(poses[:, 0], poses[:, 1])
        scorer.score_top_k(poses[:, 0], poses[:, 1], 5)
        after = measurement._scoring_pool().submit(np.getbufsize).result()
    small = measurement._BUFSIZE
    assert small != before
    assert seen == {("_score_block", True, small), ("_score_block", False, small),
                    ("_block_bounds", False, small), ("_certify", False, small)}
    assert after == before, "the pool thread kept the scoring buffer size"


def wide_prior(cfg):
    """cfg with a prior so wide that uniform sampling scores every proposal."""
    return MclConfig(prior=UniformPrior(-2.5, 2.5, -3.1, 3.1), pre_cfg=cfg.pre_cfg,
                     n_particles=cfg.n_particles)


def test_traced_callables_run_on_the_main_thread(wall_run):
    """Worker threads run only `_score_block`: a tracer's span stack, kept
    by the callables it wraps, sees one thread."""
    template, clouds, cfg = wall_run
    threads = {}

    def recorded(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        return mock.patch.object(owner, name, wrapper)

    traced = [
        (geometry, "voxel_downsample"), (geometry, "ransac_ground_plane"),
        (mcl, "preprocess"), (mcl, "PoseScorer"), (PoseScorer, "score"),
        (PoseScorer, "score_top_k"), (mcl, "sample_uniform"), (mcl, "sample_motion_model"),
        (mcl, "covariance_top_fraction"), (mcl, "resample"), (mcl, "localize_uniform"),
        (mcl, "localize_grid"), (mcl, "localize_pf"),
    ]
    with scoring_workers(2), recorded(PoseScorer, "_score_block"):
        patches = [recorded(owner, name) for owner, name in traced]
        for patch in patches:
            patch.start()
        try:
            particles = init_particles(cfg, seed=3)
            u = OdometryDelta(np.zeros(3), np.diag([0.02**2, 0.02**2, 0.01**2]))
            mcl.localize_pf(clouds[0], particles, u, template, cfg, seed=4)
            mcl.localize_uniform(clouds[1], template, cfg, seed=5)
            mcl.localize_uniform(clouds[1], template, wide_prior(cfg), seed=5)
            mcl.localize_grid(clouds[2], template, cfg)
        finally:
            for patch in patches:
                patch.stop()
    main = threading.main_thread()
    assert {name for _, name in traced} <= threads.keys()
    for owner, name in traced:
        assert threads[name] == {main}, name
    assert threads["_score_block"] - {main}, "no chunk was scored on a worker thread"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_worker_count_is_the_cpus_the_process_may_use():
    assert measurement._WORKERS == len(os.sched_getaffinity(0))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork here")
def test_a_forked_child_scores_on_threads_of_its_own(wall_run):
    """A child forked after the pool started has none of its threads; it
    must start its own rather than wait on theirs."""
    template, clouds, cfg = wall_run
    poses = init_particles(cfg, seed=3).poses
    scorer = mcl._scorer_for(clouds[0], template, cfg)

    def child():
        got = scorer.score(poses[:, 0], poses[:, 1])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    with scoring_workers(2):
        want = scorer.score(poses[:, 0], poses[:, 1])
        assert measurement._pool is not None
        with warnings.catch_warnings():
            # Python 3.12 warns on forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
        proc.join(timeout=60)
        alive = proc.is_alive()
        if alive:
            proc.kill()
            proc.join(timeout=10)
    assert not alive, "the forked child never finished scoring"
    assert proc.exitcode == 0


def test_a_sparse_proposal_set_is_scored_whole(wall_run):
    """With at least one (heading bin x y-bin) block per proposal, as a
    wide prior gives 500 proposals, bounding costs more than scoring:
    every proposal is scored and no bound is computed."""
    template, clouds, cfg = wall_run
    wide = wide_prior(cfg)
    poses = mcl.sample_uniform(wide.prior, 500, seed=6)
    frame = geometry.preprocess(clouds[0], cfg.pre_cfg)
    want = exhaustive_estimate(frame, template, wide, poses)
    with mock.patch.object(PoseScorer, "_block_bounds", side_effect=AssertionError) as bounds:
        got = pruned_uniform_estimate(frame, template, wide, poses)
        ll, ns = PoseScorer(frame, template, wide.p_floor).score_top_k(
            poses[:, 0], poses[:, 1], mcl._top_count(500, mcl.TOP_FRACTION))
    bounds.assert_not_called()
    assert estimate_bits(got) == estimate_bits(want)
    ref_ll, ref_ns = PoseScorer(frame, template, wide.p_floor).score(poses[:, 0], poses[:, 1])
    assert ll.tobytes() == ref_ll.tobytes() and ns.tobytes() == ref_ns.tobytes()


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
    assert a.tables is b.tables is log_table(template, 1e-4)
    assert c.tables is log_table(template, 1e-2) and c.tables is not a.tables
    assert a.tables.table.dtype == F32 and not a.tables.table.flags.writeable
    assert not template.grid.flags.writeable
    assert np.all(template.grid == F32(0.5))
    # templates compare by identity: an equal one has tables of its own
    twin = Template(cfg, template.grid, 1)
    assert log_table(twin, 1e-4) is not a.tables
    assert log_table(twin, 1e-4).table.tobytes() == a.tables.table.tobytes()


def test_a_templates_tables_die_with_it():
    """The cache holds its templates weakly and a LogTable holds no
    reference to its template: once the template and its scorers are gone,
    so is its entry, while the tables kept by a caller still hold."""
    template = band_template(0.25, GRID_SWEEP_NO_INFO, 3, 5, np.random.default_rng(33))
    ny = template.config.dims[1]
    tables = PoseScorer(interior_frame([(2.0, 0.0)], far=False), template).tables
    alive = weakref.ref(template)
    gc.collect()
    n = len(measurement._tables_by_template)
    del template
    gc.collect()
    assert alive() is None
    assert len(measurement._tables_by_template) == n - 1
    assert tables.band == (3, ny - 5)


def exhaustive_estimate(frame, template, cfg, poses):
    """The estimate built from scoring every proposal."""
    ll, ns = PoseScorer(frame, template, cfg.p_floor).score(poses[:, 0], poses[:, 1])
    if not np.any(ns):
        return _empty_estimate()
    return _make_estimate(poses, ll, ns, cfg)


def pruned_grid_estimate(frame, template, cfg, steps=(mcl.GRID_Y_STEP, mcl.GRID_THETA_STEP)):
    """`localize_grid` on an already preprocessed frame, with cells of
    steps = (y step, theta step)."""
    with mock.patch.object(mcl, "preprocess", lambda cloud, pre_cfg: frame), \
            mock.patch.object(mcl, "GRID_Y_STEP", steps[0]), \
            mock.patch.object(mcl, "GRID_THETA_STEP", steps[1]):
        return localize_grid(frame.cloud_V, template, cfg)


def pruned_uniform_estimate(frame, template, cfg, poses):
    """`localize_uniform` on an already preprocessed frame, drawing `poses`."""
    with mock.patch.object(mcl, "preprocess", lambda cloud, pre_cfg: frame), \
            mock.patch.object(mcl, "sample_uniform", lambda prior, n, seed: poses):
        return localize_uniform(frame.cloud_V, template, replace(cfg, n_particles=len(poses)),
                                seed=0)


def estimate_bits(est):
    floats = np.array([est.pose.y, est.pose.theta, est.std_y, est.std_theta, est.loglik])
    cov = np.asarray(est.covariance, dtype=np.float64)
    return floats.view(np.int64).tolist(), cov.view(np.int64).tolist(), est.n_points, est.flags


def uniform_proposals(draw, rng, frame, template, cfg, big=False):
    """A uniform proposal set: random, with duplicates, one pose, or on bin
    edges; `big`, only sets of 2000 or more."""
    kind = draw(st.sampled_from([k for k in ("random", "duplicates", "one", "bin-edges")
                                 if not (big and k == "one")]))
    # up to 300, or sets with more coarse blocks than the first split holds
    sizes = [st.integers(2, 300)] * (not big) + [st.integers(2000, 2600)]
    n = 1 if kind == "one" else draw(st.one_of(*sizes))
    p = cfg.prior
    ys = rng.uniform(p.y_min, p.y_max, n)
    thetas = rng.uniform(p.theta_min, p.theta_max, n)
    if kind == "duplicates":
        # headings shared by a grid column's worth of proposals, and repeated poses
        thetas = thetas[rng.integers(0, max(1, n // 12), n)]
        src = rng.integers(0, n, n)
        copy = rng.uniform(size=n) < 0.3
        ys[copy], thetas[copy] = ys[src[copy]], thetas[src[copy]]
    elif kind == "bin-edges":
        # on the edges of the heading bins and y-bins the scorer cuts
        scorer = PoseScorer(frame, template, cfg.p_floor)
        res = template.config.resolution
        r = np.hypot(scorer._qx32, scorer._qy32, dtype=np.float64)
        width = 2.0 * _ROT_SLACK * res / max(float(r.max(initial=0.0)), res)
        edge = rng.uniform(size=n) < 0.5
        thetas[edge] = thetas.min() + rng.integers(0, 8, edge.sum()) * width
        edge = rng.uniform(size=n) < 0.5
        ys[edge] = ys.min() + rng.integers(0, 8, edge.sum()) * (_y_bins(_ROT_SLACK)[0] * res)
    return np.column_stack([ys, thetas])


@st.composite
def search_scenes(draw, kinds=("random", "peaked", "constant", "walls")):
    """A frame, a template, a config and a grid search or a uniform proposal set."""
    kind = draw(st.sampled_from(kinds))
    # walls 0.2 m wide or less: a y window far from them reads no wall
    res = 0.1 if kind in ("walls", "one-wall") else draw(st.sampled_from([0.1, 0.25, 0.3]))
    no_info = draw(st.floats(1e-5, 0.5))
    cfg = TemplateConfig(resolution=res, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=no_info)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walls = np.array([0.0]) if kind == "one-wall" else np.array([-1.0, 1.0])
    if kind == "constant":
        # in the box or out of it, every point reads the same log: all proposals tie
        grid = np.full(cfg.dims, no_info, dtype=F32)
    elif kind in ("walls", "one-wall"):
        # a row's two sides, or one wall, hot voxels in a cold grid: a
        # peaked search, where most blocks, coarse and fine, are pruned
        grid = np.zeros(cfg.dims, dtype=F32)
        iy, _ = cfg.voxel_index(walls[:, None], axes=(1,))
        grid[:, iy[:, 0], :] = 0.9
    else:
        grid = rng.uniform(0.0, 1.0, cfg.dims).astype(F32)
        grid[rng.uniform(size=cfg.dims) < (0.3 if kind == "random" else 0.97)] = 0.0
    template = Template(cfg, grid, 10)

    n = draw(st.integers(20, 60) if kind == "one-wall" else st.one_of(st.just(1), st.integers(2, 60)))
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(n, 3))
    if kind in ("walls", "one-wall"):
        # on the walls, seen from a pose (y, theta) inside every prior drawn below
        y, theta = rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)
        wx = rng.uniform(0.2, 3.8, n)
        wy = rng.choice(walls, n) + rng.uniform(-0.04, 0.04, n) - y
        pts[:, 0] = math.cos(theta) * wx + math.sin(theta) * wy
        pts[:, 1] = -math.sin(theta) * wx + math.cos(theta) * wy
        pts[:, 2] = rng.uniform(0.1, 1.9, n)
    elif draw(st.booleans()):
        # near the box's y faces, so blocks straddle them
        pts[:, 1] = rng.choice([-2.07, 2.0], n) + rng.uniform(-0.9, 0.9, n)
    tilt = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.03, -0.02, 0.9)]))
    frame = PreprocessedFrame(PointCloud(pts, "V"), *tilt)

    # one wall, seen over 1.5 m of ys either side: no coarse y window
    # (about 1 m) far from the pose reaches it
    y_half = 1.5 if kind == "one-wall" else draw(st.sampled_from([0.8, 0.37]))
    theta_half = draw(st.sampled_from([0.6, 0.21]))
    mcl_cfg = MclConfig(
        prior=UniformPrior(-y_half, y_half, -theta_half, theta_half),
        p_floor=draw(st.sampled_from([1e-4, 1e-2])),
    )
    if draw(st.booleans()):
        # up to 301 headings: more coarse blocks than the first split holds
        steps = (draw(st.sampled_from([0.02, 0.05, 0.013])),
                 draw(st.sampled_from([0.01, 0.03, 0.1, 0.004])))
        return frame, template, mcl_cfg, steps
    # one wall: sets large enough to be bounded, not scored whole
    return frame, template, mcl_cfg, uniform_proposals(draw, rng, frame, template, mcl_cfg,
                                                       big=kind == "one-wall")


def assert_pruned_search_equals_exhaustive(scene):
    frame, template, cfg, search = scene
    if isinstance(search, tuple):
        want = exhaustive_estimate(frame, template, cfg, grid_poses(cfg, *search))
        got = pruned_grid_estimate(frame, template, cfg, search)
    else:
        want = exhaustive_estimate(frame, template, cfg, search)
        got = pruned_uniform_estimate(frame, template, cfg, search)
    assert estimate_bits(got) == estimate_bits(want)


@settings(max_examples=120, deadline=None)
@given(search_scenes())
def test_pruned_grid_search_equals_exhaustive(scene):
    """Grid search, and uniform sampling of any proposal set, equal exhaustive scoring."""
    assert_pruned_search_equals_exhaustive(scene)


@settings(max_examples=120, deadline=None)
@given(search_scenes())
def test_pruned_search_equals_exhaustive_when_pruning_starts_after_one_block(scene):
    """As above, with rounds of one block: a search prunes from its second
    block on, so nearly every block's bound decides whether it is scored."""
    with mock.patch.object(measurement, "_ROUND", 1):
        assert_pruned_search_equals_exhaustive(scene)


@settings(max_examples=40, deadline=None)
@given(search_scenes())
def test_score_top_k_does_not_depend_on_the_worker_count(scene):
    """With every call threaded, each round of a top-k search returns the
    bits one thread does, so the search prunes the same blocks and returns
    the same bits on 1, 2, 3 and 4 threads."""
    frame, template, cfg, search = scene
    poses = grid_poses(cfg, *search) if isinstance(search, tuple) else search
    k = mcl._top_count(len(poses), mcl.TOP_FRACTION)
    got = []
    for n in (1, 2, 3, 4):
        with scoring_workers(n):
            ll, ns = PoseScorer(frame, template, cfg.p_floor).score_top_k(poses[:, 0],
                                                                         poses[:, 1], k)
        got.append((ll.tobytes(), ns.tobytes()))
    assert got[1:] == got[:1] * 3


def every_block_bound(scorer, ys, thetas):
    """(fine, coarse): the bound of the block that holds each proposal,
    its fine block and its coarse one, each block grouped and bounded as
    `score_top_k` does, none pruned."""
    res = scorer.template.config.resolution
    width = 2.0 * _ROT_SLACK * res / max(scorer._r_max, res)
    block_of, y_lo, middle, n_shared, rot_slack = _proposal_blocks(ys, thetas, width, res)
    y_bin, per_coarse = _y_bins(rot_slack)
    n_y = y_lo.size
    group, centres = _coarse_groups(middle, n_shared, width)
    cy_lo = np.minimum.reduceat(y_lo, np.arange(0, n_y, per_coarse))
    coarse_of = group[block_of // n_y] * cy_lo.size + block_of % n_y // per_coarse
    margin = scorer._margin(np.max(np.abs(ys)), scorer._r_max)
    levels = [(middle, y_lo, block_of, rot_slack, y_bin),
              (centres, cy_lo, coarse_of, _COARSE_HEADINGS * _ROT_SLACK, per_coarse * y_bin)]
    out = []
    for heads, lows, blocks, rot, y_extent in levels:
        used, of = np.unique(blocks, return_inverse=True)
        slack, pooled = scorer._bound_table(margin, rot, y_extent)
        out.append(scorer._block_bounds(heads, lows, used, slack, pooled)[of.reshape(-1)])
    return out


@settings(max_examples=120, deadline=None)
@given(search_scenes(), st.floats(0.1, 3.9), st.floats(-1.9, 1.9))
def test_every_block_bound_is_at_least_each_of_its_proposals_scores(scene, lat_x, lat_y):
    """Every fine and coarse block's bound is at least the score of each
    proposal it holds, compared exactly: sums of the fixed-point logs are
    exact, so pruning needs no slack.  Checked on the frame and on two
    one-point frames, whose bounds no other point's window can lift: the
    frame's farthest point in the z range, which takes the whole rotation
    slack, and a point (lat_x, lat_y) inside the box, which moves in x as
    the heading turns by about lat_y per radian."""
    frame, template, cfg, search = scene
    poses = grid_poses(cfg, *search) if isinstance(search, tuple) else search
    ys, thetas = np.ascontiguousarray(poses[:, 0]), np.ascontiguousarray(poses[:, 1])
    pts = frame.cloud_V.points
    leveled = pts @ rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation.T
    z_lo, z_hi = TEMPLATE_RANGE.min_corner[2], TEMPLATE_RANGE.max_corner[2]
    in_z = np.flatnonzero((leveled[:, 2] + frame.height >= z_lo) &
                          (leveled[:, 2] + frame.height <= z_hi))
    frames = [frame, PreprocessedFrame(PointCloud(np.array([[lat_x, lat_y, 1.0]]), "V"),
                                       0.0, 0.0, 0.0)]
    if in_z.size > 1:
        far = in_z[np.argmax(np.hypot(leveled[in_z, 0], leveled[in_z, 1]))]
        frames.append(replace(frame, cloud_V=PointCloud(pts[far : far + 1], "V")))
    for f in frames:
        scorer = PoseScorer(f, template, cfg.p_floor)
        ll, _ = scorer.score(ys, thetas)
        for level, bounds in zip(("fine", "coarse"), every_block_bound(scorer, ys, thetas)):
            below = np.flatnonzero(bounds < ll)
            assert not below.size, \
                f"{below.size} {level} bounds below a score ({f.cloud_V.points.shape[0]} points)"


@settings(max_examples=60, deadline=None)
@given(search_scenes(kinds=("one-wall",)))
def test_pruned_search_prunes_coarse_blocks_of_a_one_wall_scene(scene):
    """One hot wall, seen over a wide prior: most coarse blocks lie too far
    from the pose to reach it, and are pruned once the first rounds have
    scored, leaving their fine blocks unbounded."""
    searches, bounded = [], []
    score_top_k, block_bounds = PoseScorer.score_top_k, PoseScorer._block_bounds

    def searched(self, ys, thetas, k):
        searches.append((self, ys, thetas))
        return score_top_k(self, ys, thetas, k)

    def recorded(self, middle, y_lo, blocks, slack, pooled):
        bounded.append(blocks.size)
        return block_bounds(self, middle, y_lo, blocks, slack, pooled)

    with mock.patch.object(PoseScorer, "score_top_k", searched), \
            mock.patch.object(PoseScorer, "_block_bounds", recorded):
        assert_pruned_search_equals_exhaustive(scene)
    (scorer, ys, thetas), = searches
    res = scorer.template.config.resolution
    width = 2.0 * _ROT_SLACK * res / max(scorer._r_max, res)
    block_of = _proposal_blocks(ys, thetas, width, res)[0]
    # the first pass bounds the coarse blocks; a pruned one's fine blocks are never bounded
    if bounded and sum(bounded[1:]) < np.unique(block_of).size:
        event("a coarse block was pruned")


def test_grid_search_scores_every_cell_when_its_top_cells_score_no_point():
    """The cells that push the one point out of the box in x score best,
    and with 0 points; the grid is still non-empty, because the other
    headings score it."""
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.5)
    template = Template(cfg, np.zeros(cfg.dims, dtype=F32), 10)
    frame = PreprocessedFrame(PointCloud(np.array([[3.9, -1.0, 1.0]]), "V"), 0.0, 0.0, 0.0)
    mcl_cfg = MclConfig(prior=UniformPrior(-0.5, 0.5, 0.0, 0.6))
    want = exhaustive_estimate(frame, template, mcl_cfg, grid_poses(mcl_cfg, 0.02, 0.01))
    assert want.n_points == 0 and FLAG_EMPTY_MEASUREMENT not in want.flags
    got = pruned_grid_estimate(frame, template, mcl_cfg)
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
    bounded = []  # (headings, blocks) of each bound pass
    block_bounds = PoseScorer._block_bounds

    def recorded(self, middle, y_lo, blocks, slack, pooled):
        bounded.append((middle.size, blocks.size))
        return block_bounds(self, middle, y_lo, blocks, slack, pooled)

    monkeypatch.setattr(PoseScorer, "_block_bounds", recorded)
    est = pruned_grid_estimate(frame, template, MclConfig())
    assert est.n_points == 200
    assert 0 < sum(scored) < 0.5 * 81 * 121
    # 121 headings, each a heading bin, and 1.6 m of ys in 6 y-bins; the
    # coarse pass comes first, over fewer heading groups
    assert bounded[0][0] < 121
    assert len(bounded) > 1 and all(headings == 121 for headings, _ in bounded[1:])
    assert 0 < sum(blocks for _, blocks in bounded[1:]) < 121 * 6


def test_no_block_is_pruned_when_every_bound_ties_the_kth_best():
    """Every log is 0 (frequencies and no-info 1), so every score and every
    bound, coarse and fine, is 0, and each bound only ties the k-th best.
    Every proposal must be scored, for the first k by index are the top k."""
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=1.0)
    template = Template(cfg, np.ones(cfg.dims, dtype=F32), 10)
    rng = np.random.default_rng(4)
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(40, 3))
    frame = PreprocessedFrame(PointCloud(pts, "V"), 0.0, 0.0, 0.0)
    mcl_cfg = MclConfig()
    poses = mcl.sample_uniform(mcl_cfg.prior, 2500, seed=12)
    ll, ns = PoseScorer(frame, template).score_top_k(poses[:, 0], poses[:, 1], 25)
    assert ll.tobytes() == np.zeros(2500).tobytes()
    assert np.all(ns > 0)
    want = exhaustive_estimate(frame, template, mcl_cfg, poses)
    assert estimate_bits(pruned_uniform_estimate(frame, template, mcl_cfg, poses)) == \
        estimate_bits(want)
    grid = grid_poses(mcl_cfg, mcl.GRID_Y_STEP, mcl.GRID_THETA_STEP)
    assert estimate_bits(pruned_grid_estimate(frame, template, mcl_cfg)) == \
        estimate_bits(exhaustive_estimate(frame, template, mcl_cfg, grid))


def test_a_block_below_the_best_score_of_the_rounds_before_it_is_skipped(monkeypatch):
    """One point; 20 proposals place it in a hot plane of voxels, 20 more,
    1.2 m away in y, in warm ones.  In rounds of one block the hot block is
    scored first, and its best score, the k-th best (k = 1), lies above the
    warm block's bound: the warm block is skipped."""
    monkeypatch.setattr(measurement, "_ROUND", 1)
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.5)
    grid = np.full(cfg.dims, 0.5, dtype=F32)
    grid[:, 20, :] = 0.9  # y from -0.07 to 0.03
    template = Template(cfg, grid, 10)
    frame = PreprocessedFrame(PointCloud(np.array([[2.0, 0.0, 1.0]]), "V"), 0.0, 0.0, 0.0)
    # one heading, a bin of its own; y-bins 0 and 4
    ys = np.concatenate([np.linspace(-0.06, 0.02, 20), np.linspace(1.14, 1.2, 20)])
    ll, ns = PoseScorer(frame, template).score_top_k(ys, np.zeros(40), 1)
    assert ll[0] == pytest.approx(math.log(0.9), abs=2.0**-21) and np.all(ll[:20] == ll[0])
    assert np.all(ll[20:] == -np.inf) and not np.any(ns[20:])


SLACK_BOX = Box3.from_ranges((-2.0, 4.0), (-3.0, 3.0), (0.0, 2.0))


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("corner", ["low", "high"])
def test_rotation_slack_covers_a_far_point_at_a_heading_bin_edge(axis, corner):
    """One point at the frame's largest range; one block's two proposals sit
    at the edges of its heading bin (and, for y, at the ends of its y-bin,
    1.4 voxels wide beside 0.75 voxels of rotation slack either side).
    At the bin's middle heading the point lies in a cold voxel; rotated to
    one edge heading it crosses voxel faces into the first or the last
    voxel that proposals of the block reach, the first or the last of its
    pooled window, which is hot.  A bound read without the rotation slack,
    or through a window one voxel short, misses it and prunes the block
    behind the warm proposals of the other blocks."""
    assert_far_point_at_a_block_edge_is_found("fine", axis, corner)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("corner", ["low", "high"])
def test_coarse_rotation_slack_covers_a_far_point_at_a_heading_group_edge(axis, corner):
    """As above for a coarse block, of _COARSE_HEADINGS heading bins and
    the fine y-bins a coarse y-bin holds: its proposals sit at the edges of
    its heading group (and, for y, at the ends of its coarse y-bin)."""
    assert_far_point_at_a_block_edge_is_found("coarse", axis, corner)


@pytest.mark.parametrize("level", ["fine", "coarse"])
@pytest.mark.parametrize("corner", ["low", "high"])
def test_a_grid_blocks_y_window_covers_a_point_at_its_y_edge(level, corner):
    """As the y tests above, for proposals in runs of one heading, as a
    grid's are: a fine block is one heading, with no rotation slack, and its
    y-bin is 2.9 voxels wide, not 1.4; a coarse block holds two such
    y-bins and two heading bins' rotation slack.  The block's two ends
    reach the first and the last voxel of its pooled y window."""
    assert_far_point_at_a_block_edge_is_found(level, "y", corner, runs=True)


def assert_far_point_at_a_block_edge_is_found(level, axis, corner, runs=False):
    """`runs`: every proposal in a run of one heading, so that fine blocks
    have no rotation slack (`_proposal_blocks`)."""
    res = 0.1
    cfg = TemplateConfig(resolution=res, template_range=SLACK_BOX, no_info_frequency=0.5)
    lo = cfg.template_range.min_corner
    r = 3.0
    width = 2.0 * _ROT_SLACK * res / r  # the heading bins of a frame whose largest range is r
    y_bin, per_coarse = _y_bins(0.0 if runs else _ROT_SLACK)
    # the heading bins' widths and the fine y-bins the block spans: a run's
    # bin is one heading
    n_th, n_y = (int(not runs), 1) if level == "fine" else (_COARSE_HEADINGS, per_coarse)
    slack = n_th * _ROT_SLACK
    th_lo, th_hi = 0.0, 0.998 * n_th * width
    th_mid = 0.5 * (th_lo + th_hi)
    if axis == "y":
        # the point on the x axis: its y moves by r per radian at heading 0
        total = n_y * y_bin + 2.0 * slack  # the y indices a full block can reach
        k_lo = 15
    else:
        # the point on the y axis, nearly: its x moves by r per radian
        total = 2.0 * slack
        k_lo = 18
    # the block's voxel span, a fraction frac above k_lo to frac + total, reaches
    # floor(total) + 1 voxels past k_lo when total is not whole, else total
    frac = 1.0 - 0.5 * (math.ceil(total) - total) if total % 1.0 else 0.5
    if axis == "y":
        y0 = (k_lo + frac + slack) * res + lo[1] - r * math.sin(th_mid)
        block = [(y0, th_lo), (y0 + 0.997 * n_y * y_bin * res, th_hi)]
        point = (r, 0.0)
    else:
        a = ((k_lo + frac + slack) * res + lo[0] + r * math.sin(th_mid)) / math.cos(th_mid)
        point = (a, math.sqrt(r * r - a * a))
        y0 = -1.5
        block = [(y0, th_hi), (y0, th_lo)]  # x falls as the heading grows
    # the voxel on `axis` each of the block's two poses places the point in
    qx, qy = point
    ax = "xy".index(axis)

    def coord(y, t):
        if axis == "x":
            return qx * math.cos(t) - qy * math.sin(t)
        return qx * math.sin(t) + qy * math.cos(t) + y

    index = [math.floor((coord(y, t) - lo[ax]) / res) for y, t in block]
    assert index == [k_lo, k_lo + math.floor(frac + total)]

    grid = np.full(cfg.dims, 0.5, dtype=F32)  # warm, as is the no-info slot
    cold = [slice(None)] * 3
    cold[ax] = slice(k_lo - 2, index[1] + 3)
    grid[tuple(cold)] = 0.05
    hot = [slice(None)] * 3
    hot[ax] = index[0] if corner == "low" else index[1]
    grid[tuple(hot)] = 0.9
    assert_hot_block_is_found(Template(cfg, grid, 10), point, block, width, y0, runs)


@pytest.mark.parametrize("crossing", ["leaves", "enters"])
def test_rotation_slack_covers_a_point_crossing_the_x_face(crossing):
    """As above, at the box's upper x face: at the bin's middle heading the
    point lies just inside the box (or just outside), and at one edge
    heading just outside (inside).  The hot log is the no-info slot's (the
    last voxel's), which the block's bound must take."""
    res = 0.1
    hi_x = SLACK_BOX.max_corner[0]
    target = hi_x - 0.03 if crossing == "leaves" else hi_x + 0.03
    qy, a, th_mid = 3.0, target, 0.0
    for _ in range(4):  # the bin width follows the point's range
        r = math.hypot(a, qy)
        width = 2.0 * _ROT_SLACK * res / r
        th_mid = 0.5 * 0.998 * width
        a = (target + qy * math.sin(th_mid)) / math.cos(th_mid)
    th_lo, th_hi = 0.0, 0.998 * width
    x = [a * math.cos(t) - qy * math.sin(t) for t in (th_lo, th_mid, th_hi)]
    if crossing == "leaves":
        assert x[1] < hi_x < x[0]
        no_info, hot = 0.9, None
    else:
        assert x[2] < hi_x < x[1]
        no_info, hot = 0.05, -1
    y0 = -3.5
    cfg = TemplateConfig(resolution=res, template_range=SLACK_BOX, no_info_frequency=no_info)
    grid = np.full(cfg.dims, 0.5, dtype=F32)  # warm
    grid[-6:] = 0.05
    if hot is not None:
        grid[hot] = 0.9
    assert_hot_block_is_found(Template(cfg, grid, 10), (a, qy), [(y0, th_lo), (y0, th_hi)],
                              width, y0)


def assert_hot_block_is_found(template, point, block, width, y0, runs=False):
    """Pruned and exhaustive search agree on `block` and warm filler blocks.

    The fillers, three proposals each in more fine blocks than the first
    coarse blocks split hold, all read warm logs; one of `block`'s
    proposals reads the hot log 0.9 and is the best.  They lie 1.2 y-bins
    apart, y-bins as wide as the search cuts them (`_y_bins`), so there
    are fewer fine blocks than proposals, and the search bounds blocks.
    With `runs`, every heading, the block's two included, is a run of
    _MIN_RUN or more proposals.
    """
    frame = PreprocessedFrame(PointCloud(np.array([[*point, 1.0]]), "V"), 0.0, 0.0, 0.0)
    res = template.config.resolution
    y_bin = _y_bins(0.0 if runs else _ROT_SLACK)[0] * res
    n_fill = _FIRST_SPLIT * _ROUND + 14
    fill_th = 0.3 + 1.2 * width * np.arange(10)
    fill_y = y0 + 1.2 * y_bin * np.arange(math.ceil(n_fill / 10))
    if runs:
        # theta-major: each heading's three copies of its ys are one run
        ys = np.concatenate([fill_y + 0.05 * j * y_bin for j in range(3)])
        tt, yy = np.meshgrid(fill_th, ys, indexing="ij")
        poses = np.vstack([np.repeat(block, _MIN_RUN, axis=0),
                           np.column_stack([yy.ravel(), tt.ravel()])])
    else:
        tt, yy = np.meshgrid(fill_th, fill_y)  # no run of one heading
        fill = np.column_stack([yy.ravel(), tt.ravel()])
        copies = [fill + j * np.array([0.05 * y_bin, 0.05 * width]) for j in range(3)]
        poses = np.vstack([np.array(block), *copies])
    mcl_cfg = MclConfig()
    want = exhaustive_estimate(frame, template, mcl_cfg, poses)
    assert want.loglik == pytest.approx(math.log(0.9), abs=2.0**-21)
    with mock.patch.object(PoseScorer, "_block_bounds", autospec=True,
                           side_effect=PoseScorer._block_bounds) as bounds:
        got = pruned_uniform_estimate(frame, template, mcl_cfg, poses)
    assert bounds.called
    assert estimate_bits(got) == estimate_bits(want)


@contextmanager
def recorded_passes():
    """Record (masked, points) of each `_score_block` call: an unmasked
    one scores certified (fast or interior) points only."""
    calls = []
    score_block = PoseScorer._score_block

    def recorded(self, cos_t, sin_t, ys, row, points, masked):
        calls.append((masked, points[0].size))
        return score_block(self, cos_t, sin_t, ys, row, points, masked)

    with mock.patch.object(PoseScorer, "_score_block", recorded):
        yield calls


def sensor_points(template_xy, y0, theta0):
    """The sensor-frame (x, y) of template-frame points seen from pose (y0, theta0)."""
    c, s = math.cos(theta0), math.sin(theta0)
    dx, dy = template_xy[:, 0], template_xy[:, 1] - y0
    return np.column_stack([c * dx + s * dy, -s * dx + c * dy])


@st.composite
def particle_scenes(draw):
    """A frame and a particle set concentrated about a pose (y0, theta0),
    as the particle filter's is.

    The cloud is placed about that pose: points deep inside the box,
    which every particle keeps inside; points near each x and y face, on
    either side; far points, past the box for every particle; and z
    values on both sides of the z range.
    """
    res = draw(st.sampled_from([0.1, 0.25, 0.3]))
    cfg = TemplateConfig(resolution=res, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=draw(st.floats(1e-3, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.sampled_from([1, 10, 300]))
    counts = rng.integers(0, n_frames + 1, cfg.dims)
    counts[rng.uniform(size=cfg.dims) < 0.4] = 0
    template = Template(cfg, counts / float(n_frames), n_frames)

    y0, theta0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15)
    lo, hi = TEMPLATE_RANGE.min_corner, TEMPLATE_RANGE.max_corner
    n_deep, n_face, n_far = (draw(st.integers(1, 60)), draw(st.integers(0, 20)),
                             draw(st.integers(1, 10)))
    # at least 1 m inside each face: no particle below takes one out
    deep = rng.uniform([1.0, -0.8], [2.8, 0.8], (n_deep, 2))
    face = rng.uniform([lo[0], lo[1]], [hi[0], hi[1]], (4 * n_face, 2))
    near = rng.uniform(-0.4, 0.4, 4 * n_face)
    for k, (axis, at) in enumerate([(0, lo[0]), (0, hi[0]), (1, lo[1]), (1, hi[1])]):
        face[k * n_face : (k + 1) * n_face, axis] = at + near[k * n_face : (k + 1) * n_face]
    far = np.column_stack([rng.uniform(6.0, 30.0, n_far), rng.uniform(-10.0, 10.0, n_far)])
    xy = sensor_points(np.vstack([deep, face, far]), y0, theta0)
    z = rng.uniform(0.1, 1.9, len(xy))
    z[rng.uniform(size=len(xy)) < 0.15] = rng.choice([-0.3, 2.3])
    z[: n_deep] = rng.uniform(0.1, 1.9, n_deep)
    z[-n_far:] = rng.uniform(0.1, 1.9, n_far)  # in the z range: edge points of the kernel
    frame = PreprocessedFrame(PointCloud(np.column_stack([xy, z]), "V"), 0.0, 0.0, 0.0)

    n = draw(st.one_of(st.integers(1, 40), st.integers(2 * _CHUNK, 5 * _CHUNK)))
    sigma_y = draw(st.sampled_from([0.0, 0.005, 0.02, 0.05]))
    sigma_theta = draw(st.sampled_from([0.002, 0.01, 0.03]))
    ys = y0 + sigma_y * np.clip(rng.standard_normal(n), -3.0, 3.0)
    thetas = theta0 + sigma_theta * np.clip(rng.standard_normal(n), -3.0, 3.0)
    if draw(st.booleans()):
        # resampled: copies of one particle follow each other
        src = np.sort(rng.integers(0, n, n))
        ys, thetas = ys[src], thetas[src]
    return frame, template, draw(st.sampled_from([1e-4, 1e-2])), ys, thetas


@settings(max_examples=80, deadline=None)
@given(particle_scenes(), st.sampled_from([1, 2]))
def test_interior_and_edge_passes_equal_per_proposal_reference(scene, workers):
    """A concentrated particle set certifies the deep points and leaves the
    far ones at the edge, so every call takes the split, its runs of one
    heading too: an interior pass and an edge pass, summed per row."""
    frame, template, p_floor, ys, thetas = scene
    scorer = PoseScorer(frame, template, p_floor)
    with scoring_workers(workers), recorded_passes() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    assert {masked for masked, _ in calls} == {False, True}
    starts, lengths, long = measurement._heading_runs(thetas)
    event("runs of one heading" if long.any() else "distinct headings only")


def interior_frame(points_xy, far=True):
    """A level frame of points at z = 1, and one far point past the box,
    an edge point of every call, that fixes the largest range."""
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2)
    if far:
        pts = np.vstack([pts, [30.0, 0.0]])
    return PreprocessedFrame(PointCloud(np.column_stack([pts, np.ones(len(pts))]), "V"),
                             0.0, 0.0, 0.0)


def interior_template():
    cfg = TemplateConfig(resolution=0.1, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.05)
    rng = np.random.default_rng(21)
    return Template(cfg, rng.integers(0, 11, cfg.dims) / 10.0, 10)


# a particle set about heading 0.2 and y 0.1, with every corner of its
# (heading, y) span, no two consecutive headings equal
SPREAD_THETAS = 0.2 + 0.03 * np.array([-1.0, 1.0, -1.0, 1.0, 0.0, 0.5, -0.5, 0.25, -0.25])
SPREAD_YS = 0.1 + 0.1 * np.array([-1.0, 1.0, 1.0, -1.0, 0.0, -0.5, 0.5, 0.8, -0.3])
# for each face: the axis of the coordinate moved, the other coordinate,
# and the sensor-frame values it moves between (outside, inside)
FACE_SEARCH = {
    "low-x": (0, 1.2, (-0.5, 1.5)),
    "high-x": (0, -1.0, (5.0, 3.0)),
    "low-y": (1, 2.0, (-3.5, -1.5)),
    "high-y": (1, 2.0, (2.5, 0.5)),
}


def f32_key(x):
    """float32 values in order as integers."""
    i = int(np.array([x], dtype=F32).view(np.uint32)[0])
    return i if i < 2**31 else -(i - 2**31)


def f32_of(k):
    return np.array([k if k >= 0 else 2**31 - k], dtype=np.uint32).view(F32)[0]


def certified_flip(template, face, ys, thetas):
    """The two sensor-frame points, one float32 step apart on the face's
    axis, between which `_interior` stops certifying: (edge, interior)."""
    axis, other, (out, inside) = FACE_SEARCH[face]

    def point(v):
        return (v, other) if axis == 0 else (other, v)

    def certified(v):
        scorer = PoseScorer(interior_frame([point(v)]), template)
        return bool(scorer._interior(ys, thetas)[0][0])

    a, b = f32_key(out), f32_key(inside)
    assert not certified(f32_of(a)) and certified(f32_of(b))
    while abs(b - a) > 1:
        mid = (a + b) // 2
        if certified(f32_of(mid)):
            b = mid
        else:
            a = mid
    return point(float(f32_of(a))), point(float(f32_of(b)))


@pytest.mark.parametrize("face", list(FACE_SEARCH))
def test_points_one_float32_step_either_side_of_the_certified_slack(face):
    """At each face the certified region ends where `_interior`'s slack
    says, one float32 step from an edge point; the upper faces' limits
    are the last voxel's lower face, nx - 1 and ny - 1, inside the box.
    Both points score as the reference does."""
    template = interior_template()
    cfg = template.config
    edge, inner = certified_flip(template, face, SPREAD_YS, SPREAD_THETAS)
    # where the flip lies, in voxels: the slack from the limit at the middle pose
    axis = FACE_SEARCH[face][0]
    nx, ny, _ = cfg.dims
    limit = {"low-x": 0.0, "high-x": nx - 1, "low-y": 0.0, "high-y": ny - 1}[face]
    t_mid, y_mid = 0.2, 0.1
    qx, qy = (float(F32(v)) for v in inner)
    c, s = math.cos(t_mid), math.sin(t_mid)
    lo = cfg.template_range.min_corner
    at = ((c * qx - s * qy - lo[0]) if axis == 0 else (s * qx + c * qy + y_mid - lo[1]))
    scorer = PoseScorer(interior_frame([inner]), template)
    # its own range's part of the margin, taken once per scorer, and the ys' part
    assert scorer._margins[0] == scorer._margin(0.0, math.hypot(qx, qy))
    margin = scorer._margins[0] + scorer._margin(np.max(np.abs(SPREAD_YS)), None)
    slack = math.hypot(qx, qy) * 0.03 / cfg.resolution + margin
    if axis == 1:
        slack += 0.1 / cfg.resolution
    assert abs(abs(at / cfg.resolution - limit) - slack) < 1e-5
    for pt, certified in ((edge, False), (inner, True)):
        frame = interior_frame([pt])
        scorer = PoseScorer(frame, template)
        assert scorer._interior(SPREAD_YS, SPREAD_THETAS)[0].tolist() == [certified, False]
        with recorded_passes() as calls:
            assert_scores_equal_reference(scorer, frame, SPREAD_YS, SPREAD_THETAS)
        assert calls == ([(True, 2)] if not certified else [(False, 1), (True, 1)])


# a box whose upper x and y faces lie 0.001 m past the last voxels' lower
# faces, the limits of `_interior`
TIGHT_RANGE = Box3.from_ranges((-0.05, 3.951), (-2.07, 1.931), (0.0, 2.0))


@pytest.mark.parametrize("face, depth", [("low-x", 0.5), ("high-x", 0.25), ("low-y", 0.7),
                                         ("high-y", 0.7)])
def test_a_point_an_extreme_particle_moves_out_of_the_box_is_an_edge_point(face, depth):
    """At the middle pose the point lies inside the box's face by `depth`
    times its slack: r times half the heading span, plus half the ys'
    span at the y faces.  A particle at a corner of the span moves it out
    of the box, so the reference's box test scores it for some particles
    only; the slack keeps it at the edge.  The depths are such that a
    slack without its rotation term, or without the ys' span at the y
    faces, would certify the point."""
    cfg = TemplateConfig(resolution=0.1, template_range=TIGHT_RANGE, row_range=TIGHT_RANGE,
                         no_info_frequency=0.05)
    template = Template(cfg, np.random.default_rng(25).integers(0, 11, cfg.dims) / 10.0, 10)
    lo, hi = TIGHT_RANGE.min_corner, TIGHT_RANGE.max_corner
    axis = 0 if face.endswith("x") else 1
    at = (lo if face.startswith("low") else hi)[axis]
    inward = 1.0 if face.startswith("low") else -1.0
    # the other coordinate, at the middle pose, far from its own faces
    other = -1.7 if axis == 0 else 3.5
    xy = [other, other]
    xy[axis] = at
    # the slack of a point on the face, near enough the point's own
    r = float(np.hypot(*sensor_points(np.array([xy]), 0.1, 0.2)[0]))
    xy[axis] = at + inward * depth * (r * 0.03 + (0.1 if axis == 1 else 0.0))
    frame = interior_frame(sensor_points(np.array([xy]), 0.1, 0.2))
    scorer = PoseScorer(frame, template)
    assert scorer._interior(SPREAD_YS, SPREAD_THETAS)[0].tolist() == [False, False]
    kept = [reference_score(frame, template, scorer.p_floor, y, th)[1]
            for y, th in zip(SPREAD_YS, SPREAD_THETAS)]
    assert 0 in kept and 1 in kept, "no particle takes the point out of the box"
    assert_scores_equal_reference(scorer, frame, SPREAD_YS, SPREAD_THETAS)


def float32_crossing(face):
    """A sensor-frame point and a heading (at y 0.37) whose exact template
    coordinate lies inside the box's low x or y face by less than the
    kernel's float32 rounding, which puts it outside."""
    lo = TEMPLATE_RANGE.min_corner
    inv_res, y = F32(1.0 / 0.1), 0.37
    for theta in np.linspace(0.05, 0.6, 23):
        c, s = math.cos(theta), math.sin(theta)
        c32, s32 = F32(c), F32(s)
        if face == "low-x":
            other = F32(1.3)
            start = F32((lo[0] + s * float(other)) / c)
        else:
            other = F32(2.5)
            start = F32((lo[1] - y - s * float(other)) / c)
        for k in range(-300, 300):
            v = f32_of(f32_key(start) + k)
            if face == "low-x":
                exact = c * float(v) - s * float(other) - lo[0]
                kernel = (c32 * v - s32 * other - F32(lo[0])) * inv_res
                pt = (float(v), float(other))
            else:
                exact = s * float(other) + c * float(v) + y - lo[1]
                kernel = (s32 * other + c32 * v + F32(y) - F32(lo[1])) * inv_res
                pt = (float(other), float(v))
            if exact > 0 and kernel < 0:
                return pt, theta, y
    raise AssertionError("no point found")


@pytest.mark.parametrize("face", ["low-x", "low-y"])
def test_a_point_float32_rounding_moves_out_of_the_box_is_an_edge_point(face):
    """Exactly, one proposal keeps the point inside the box, by less than
    a float32 rounding; the kernel's float32 coordinate lies outside, so
    the reference does not score it.  The rounding margin keeps it at the
    edge; without it the unmasked kernel would read and count a voxel."""
    pt, theta, y = float32_crossing(face)
    template = interior_template()
    frame = interior_frame([pt, (2.0, 0.0)])  # and one interior point
    scorer = PoseScorer(frame, template)
    ys, thetas = np.array([y]), np.array([theta])
    assert reference_score(frame, template, scorer.p_floor, y, theta)[1] == 1
    assert scorer._interior(ys, thetas)[0].tolist() == [False, True, False]
    with recorded_passes() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    assert calls == [(False, 1), (True, 2)]


def test_far_points_need_a_wider_slack_than_near_ones():
    """Two points the same distance inside the box's low y face at the
    middle pose: the near one is interior, the far one, whose heading
    slack is r times wider, is not."""
    cfg = TemplateConfig(resolution=0.1, template_range=Box3.from_ranges((0.0, 30.0),
                         (-5.0, 5.0), (0.0, 4.0)), row_range=ROW_RANGE, no_info_frequency=0.05)
    rng = np.random.default_rng(22)
    template = Template(cfg, rng.integers(0, 11, cfg.dims) / 10.0, 10)
    thetas = 0.01 * np.array([-1.0, 1.0, 0.0, 0.5, -0.5])
    ys = np.zeros(5)
    # 0.1 m inside the face at heading 0: 0.05 rad x 2 m = 0.02 m of rotation
    # slack, 0.01 rad x 25 m = 0.25 m
    frame = interior_frame([(2.0, -4.9), (25.0, -4.9)], far=False)
    scorer = PoseScorer(frame, template)
    assert scorer._interior(ys, thetas)[0].tolist() == [True, False]
    kept = [reference_score(frame, template, scorer.p_floor, y, th)[1] for y, th in zip(ys, thetas)]
    assert kept == [1, 2, 2, 2, 1]  # the far point leaves the box at heading -0.01
    assert_scores_equal_reference(scorer, frame, ys, thetas)


def test_a_wide_heading_span_certifies_no_point():
    """Particles spread over +-0.6 rad: a point 2.5 m or more off moves
    1.5 m or more, past the box's far x face from any point 2.5 m to
    3.5 m along it, so nothing is certified and the call keeps the one
    masked pass."""
    template = interior_template()
    rng = np.random.default_rng(23)
    frame = interior_frame(rng.uniform([2.5, -0.8], [3.5, 0.8], (30, 2)))
    scorer = PoseScorer(frame, template)
    thetas = rng.uniform(-0.6, 0.6, 300)
    ys = rng.uniform(-0.3, 0.3, 300)
    assert not scorer._interior(ys, thetas)[0].any()
    with recorded_passes() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    assert {c for c in calls} == {(True, 31)}


def band_template(res, no_info, low, high, rng, n_frames=10, range_=TEMPLATE_RANGE):
    """A template whose first `low` and last `high` y slabs hold only the
    no-info frequency, stored as float32 as `build_template` stores it; the
    others random frame-count frequencies."""
    cfg = TemplateConfig(resolution=res, template_range=range_, row_range=ROW_RANGE,
                         no_info_frequency=no_info)
    ny = cfg.dims[1]
    freq = rng.integers(0, n_frames + 1, cfg.dims) / float(n_frames)
    freq[rng.uniform(size=cfg.dims) < 0.4] = 0.0
    freq[:, :low] = no_info
    freq[:, ny - high :] = no_info
    return Template(cfg, freq, n_frames)


def band_edge_points(template, p_floor, y0, theta0, rng, n):
    """Sensor-frame points about each inner band edge, as seen from the
    pose (y0, theta0): on it, within 0.3 m of it, and, for the point on
    it, one float32 step either side in sensor y."""
    cfg = template.config
    lo_y, res = cfg.template_range.min_corner[1], cfg.resolution
    ny_lo, ny_hi = log_table(template, p_floor).band
    edges = [e for e in (ny_lo, ny_hi) if 0 < e < cfg.dims[1]]
    out = []
    for e in edges:
        y = lo_y + e * res + np.concatenate([[0.0], rng.uniform(-0.3, 0.3, n)])
        xy = sensor_points(np.column_stack([rng.uniform(1.0, 2.8, n + 1), y]), y0, theta0)
        on = xy[0].astype(F32)
        steps = [np.nextafter(on[1], F32(-np.inf)), np.nextafter(on[1], F32(np.inf))]
        out += [xy, on[None, :].astype(np.float64)]
        out += [np.array([[on[0], s]], dtype=np.float64) for s in steps]
    return np.vstack(out) if out else np.empty((0, 2))


@st.composite
def band_scenes(draw):
    """A template with no-info y bands of random width (none, on one side,
    on both, or the whole grid) of a float32 or float64 no-info frequency,
    grid-sweep's among them, a cloud about a pose (y0, theta0) with
    points on and one float32 step either side of each band edge, points
    anywhere in and past the box and outside the z range, and a particle
    set or a theta-major grid whose y and heading spans carry points
    across the edges."""
    res = draw(st.sampled_from([0.1, 0.25, 0.3]))
    no_info = draw(st.one_of(st.floats(1e-3, 0.5).map(lambda v: float(F32(v))),
                             st.floats(1e-3, 0.5), st.just(GRID_SWEEP_NO_INFO)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ny = TemplateConfig(resolution=res, template_range=TEMPLATE_RANGE).dims[1]
    kind = draw(st.sampled_from(["none", "low", "high", "both", "all"]))
    low = draw(st.integers(1, ny - 2)) if kind in ("low", "both") else ny * (kind == "all")
    high = draw(st.integers(1, ny - 1 - low)) if kind in ("high", "both") else 0
    template = band_template(res, no_info, low, high, rng)
    p_floor = draw(st.sampled_from([1e-4, 1e-2]))

    if draw(st.booleans()):
        y0, theta0 = 0.0, 0.0  # the kernel's y is the sensor's, plus the proposal's
    else:
        y0, theta0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15)
    lo, hi = TEMPLATE_RANGE.min_corner, TEMPLATE_RANGE.max_corner
    anywhere = sensor_points(rng.uniform([lo[0] - 1.0, lo[1] - 1.0], [hi[0] + 1.0, hi[1] + 1.0],
                                         (draw(st.integers(0, 40)), 2)), y0, theta0)
    xy = np.vstack([band_edge_points(template, p_floor, y0, theta0, rng,
                                     draw(st.integers(0, 20))), anywhere])
    z = rng.uniform(0.1, 1.9, len(xy))
    z[rng.uniform(size=len(xy)) < 0.1] = -0.3
    frame = PreprocessedFrame(PointCloud(np.column_stack([xy, z]), "V"), 0.0, 0.0, 0.0)

    sigma_y = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    sigma_theta = draw(st.sampled_from([0.0, 0.002, 0.01, 0.03]))
    if draw(st.booleans()):
        n = draw(st.one_of(st.integers(1, 40), st.integers(2 * _CHUNK, 3 * _CHUNK)))
        ys = y0 + sigma_y * np.clip(rng.standard_normal(n), -3.0, 3.0)
        thetas = theta0 + sigma_theta * np.clip(rng.standard_normal(n), -3.0, 3.0)
    else:
        tt, yy = np.meshgrid(theta0 + sigma_theta * np.linspace(-1.0, 1.0, 5),
                             y0 + sigma_y * np.linspace(-1.0, 1.0, 3 * _MIN_RUN), indexing="ij")
        ys, thetas = yy.ravel(), tt.ravel()
    return frame, template, p_floor, ys, thetas, (low, ny - high) if kind != "all" else (ny, 0)


@settings(max_examples=80, deadline=None)
@given(band_scenes(), st.sampled_from([1, 2]))
def test_band_points_summed_as_one_constant_equal_reference(scene, workers):
    """Points that every proposal places inside the box and in a y band
    add the band's log once per point and count as scored; with the others
    they score as the reference does, bit for bit, also where a proposal
    carries a point across a band edge."""
    frame, template, p_floor, ys, thetas, band = scene
    scorer = PoseScorer(frame, template, p_floor)
    assert scorer.tables.band == band
    event("band points" if scorer._interior(ys, thetas)[1].any() else "no band point")
    with scoring_workers(workers):
        assert_scores_equal_reference(scorer, frame, ys, thetas)


def test_band_points_reach_no_kernel_call_yet_count_as_scored():
    """A tight particle set about a pose: the points deep inside the low
    band (1.2 m of y slabs) and the high band are certified, enter no
    `_score_block` call, and count in every row's n_scored; a frame of
    band points only is scored with no kernel call at all, each point
    adding the band's log: grid-sweep's, one step off the no-info slot,
    and NEAR_ONE's, -0.0, whose rows sum to +0.0 as numpy's sums do."""
    for no_info in (float(F32(0.02)), GRID_SWEEP_NO_INFO, float(NEAR_ONE)):
        rng = np.random.default_rng(31)
        template = band_template(0.1, no_info, 12, 9, rng)
        lo_y = TEMPLATE_RANGE.min_corner[1]
        ny = template.config.dims[1]
        band_xy = np.column_stack([rng.uniform(1.0, 2.8, 14),
                                   np.concatenate([rng.uniform(lo_y + 0.2, lo_y + 0.9, 7),
                                                   rng.uniform(lo_y + (ny - 6) * 0.1,
                                                               lo_y + (ny - 3) * 0.1, 7)])])
        middle_xy = rng.uniform([1.0, -0.5], [2.8, 0.5], (20, 2))
        ys = 0.1 + 0.01 * rng.standard_normal(300)
        thetas = 0.05 + 0.003 * rng.standard_normal(300)
        for xy, n_kernel in ((np.vstack([band_xy, middle_xy]), 20), (band_xy, 0)):
            frame = interior_frame(sensor_points(xy, 0.1, 0.05), far=False)
            scorer = PoseScorer(frame, template)
            off_slot_0 = scorer.tables.band_log != scorer.log_no_info
            assert off_slot_0 == (no_info == GRID_SWEEP_NO_INFO)
            _, band = scorer._interior(ys, thetas)
            assert band.tolist() == [True] * 14 + [False] * (len(xy) - 14)
            with recorded_calls() as calls:
                ll, ns = scorer.score(ys, thetas)
            # the kernel calls, all unmasked, hold the middle points and only
            # them, each row reading each once
            assert bool(calls) == (n_kernel > 0)
            assert not any(masked for *_, masked in calls)
            qx = [points[0] for _, _, _, points, _ in calls]
            assert set(np.concatenate(qx + [[]])) <= set(scorer._qx32[14:])
            lookups = sum(rows * points[0].size for _, _, rows, points, _ in calls)
            assert lookups == n_kernel * len(ys)
            assert np.all(ns == len(xy))
            if n_kernel == 0:
                assert not calls
                want = np.zeros(300) + len(xy) * scorer.tables.band_log
                assert ll.tobytes() == want.tobytes()
            assert_scores_equal_reference(scorer, frame, ys, thetas)


def test_band_limits_are_computed_once_per_template_and_floor():
    """The band limits are read from the log table when it is built, one
    LogTable per (template, p_floor): a scorer of the same pair takes that
    value, another p_floor gets its own."""
    rng = np.random.default_rng(32)
    template = band_template(0.25, float(F32(0.01)), 3, 5, rng)
    ny = template.config.dims[1]
    frame = interior_frame([(2.0, 0.0)], far=False)
    with mock.patch.object(measurement, "LogTable", wraps=measurement.LogTable) as built:
        a = PoseScorer(frame, template)
        assert PoseScorer(interior_frame([(1.0, 0.5)], far=False), template).tables is a.tables
        # at p_floor 1e-2 the empty voxels read log(p_floor), the no-info slot
        # too, but no slab is wholly empty
        c = PoseScorer(frame, template, p_floor=1e-2)
        assert PoseScorer(frame, template, p_floor=1e-2).tables is c.tables
    assert built.call_count == 2
    assert a.tables.band == c.tables.band == (3, ny - 5)
    assert a.tables.band_log == a.log_no_info and c.tables.band_log == c.tables.log_floor


@contextmanager
def certified_rows(rows):
    """Chunks of distinct headings of `rows` rows or more."""
    with mock.patch.object(measurement, "_CERTIFIED_ROWS", rows):
        yield


@contextmanager
def recorded_calls():
    """Record (cos_t, sin_t, row count, points, masked) of each `_score_block`
    call, on any thread."""
    calls = []
    score_block = PoseScorer._score_block

    def recorded(self, cos_t, sin_t, ys, row, points, masked):
        calls.append((cos_t, sin_t, len(ys), points, masked))
        return score_block(self, cos_t, sin_t, ys, row, points, masked)

    with mock.patch.object(PoseScorer, "_score_block", recorded):
        yield calls


def fast_calls(calls):
    return [c for c in calls if c[3][3] is not None]


@st.composite
def chunked_particle_scenes(draw):
    """A frame about a pose (y0, theta0), a template with y bands of 0 to 3
    slabs, and proposals of distinct headings scored in chunks of `rows`
    rows or more: a tight particle set, a wide one, two clusters 0.2 rad
    and 0.4 m apart, or a set so tight that only the rounding margin keeps
    a point's x voxel from changing within it.  The cloud holds points deep
    inside the box, near its x and y faces, past it and outside the z
    range, and points whose x at the pose lies within a few rounding
    margins of an x voxel face."""
    res = draw(st.sampled_from([0.1, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    template = band_template(res, draw(st.floats(1e-3, 0.5)), draw(st.integers(0, 3)),
                             draw(st.integers(0, 3)), rng)
    cfg = template.config
    lo, hi = TEMPLATE_RANGE.min_corner, TEMPLATE_RANGE.max_corner
    y0, theta0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15)
    n_deep, n_face, n_voxel_face = (draw(st.integers(1, 30)), draw(st.integers(0, 5)),
                                    draw(st.integers(0, 30)))
    deep = rng.uniform([1.0, -0.8], [2.8, 0.8], (n_deep, 2))
    face = rng.uniform([lo[0], lo[1]], [hi[0], hi[1]], (4 * n_face, 2))
    near = rng.uniform(-0.4, 0.4, 4 * n_face)
    for k, (axis, at) in enumerate([(0, lo[0]), (0, hi[0]), (1, lo[1]), (1, hi[1])]):
        face[k * n_face : (k + 1) * n_face, axis] = at + near[k * n_face : (k + 1) * n_face]
    # 1e-7 to 1e-3 voxels either side of an x voxel face: the margin is a few
    # 1e-3 voxels, the kernel's float32 rounding of x up to about 1e-5
    off = rng.choice([-1.0, 1.0], n_voxel_face) * 10.0 ** rng.uniform(-7, -3, n_voxel_face)
    k = rng.integers(2, cfg.dims[0] - 2, n_voxel_face)
    voxel_face = np.column_stack([lo[0] + (k + off) * res, rng.uniform(-0.8, 0.8, n_voxel_face)])
    far = np.column_stack([rng.uniform(6.0, 30.0, 2), rng.uniform(-10.0, 10.0, 2)])
    xy = sensor_points(np.vstack([deep, face, voxel_face, far]), y0, theta0)
    z = rng.uniform(0.1, 1.9, len(xy))
    z[rng.uniform(size=len(xy)) < 0.1] = 2.3
    frame = PreprocessedFrame(PointCloud(np.column_stack([xy, z]), "V"), 0.0, 0.0, 0.0)

    kind = draw(st.sampled_from(["tight", "wide", "two clusters", "margin"]))
    n = draw(st.integers(1, 160))
    noise = np.clip(rng.standard_normal((2, n)), -3.0, 3.0)
    if kind == "tight":
        ys, thetas = y0 + 0.02 * noise[0], theta0 + 0.005 * noise[1]
    elif kind == "wide":
        ys, thetas = rng.uniform(-1.0, 1.0, n), rng.uniform(-0.6, 0.6, n)
    elif kind == "two clusters":
        second = rng.uniform(size=n) < 0.5
        ys = y0 + 0.4 * second + 0.01 * noise[0]
        thetas = theta0 + 0.2 * second + 0.002 * noise[1]
    else:
        ys, thetas = y0 + 1e-9 * noise[0], theta0 + 1e-9 * noise[1]
    rows = draw(st.sampled_from([4, 24, measurement._CERTIFIED_ROWS]))
    return frame, template, draw(st.sampled_from([1e-4, 1e-2])), ys, thetas, rows, kind


@settings(max_examples=80, deadline=None)
@given(chunked_particle_scenes(), st.sampled_from([1, 2]))
def test_chunks_of_distinct_headings_equal_per_proposal_reference(scene, workers):
    """Each chunk of distinct headings is certified over its own span, in
    heading order: its band, fast, interior and edge points score, bit for
    bit, as the reference does, also where a point lies within a rounding
    margin of an x voxel face."""
    frame, template, p_floor, ys, thetas, rows, kind = scene
    scorer = PoseScorer(frame, template, p_floor)
    with scoring_workers(workers), certified_rows(rows), recorded_calls() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    event(kind)
    event("fast points" if fast_calls(calls) else "no fast point")


def test_fast_points_reach_the_kernel_with_their_x_index_and_no_fx():
    """A tight particle set about a pose, and points in the middle of their
    x voxels at that pose: every point is fast in every chunk.  Each kernel
    call gets the points' flat x parts k * ny * nz + iz, k the kernel's
    trunc(fx) for every row of the call, and no z index; the kernel
    computes no fx, so a scorer whose x origin is NaN scores the same bits
    and casts no NaN."""
    template = interior_template()
    cfg = template.config
    nx, ny, nz = cfg.dims
    lo = cfg.template_range.min_corner
    rng = np.random.default_rng(41)
    txy = np.column_stack([lo[0] + (rng.integers(5, 30, 40) + 0.5) * cfg.resolution,
                           rng.uniform(-0.8, 0.8, 40)])
    frame = interior_frame(sensor_points(txy, 0.1, 0.2), far=False)
    ys = 0.1 + 0.002 * rng.standard_normal(600)
    thetas = 0.2 + 0.0005 * rng.standard_normal(600)
    scorer = PoseScorer(frame, template)
    iz = scorer._iz32[0]
    assert np.all(scorer._iz32 == iz)  # every point at z 1
    with certified_rows(100), recorded_calls() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
        want = [a.tobytes() for a in scorer.score(ys, thetas)]
    assert calls == fast_calls(calls) and not any(masked for *_, masked in calls)
    assert sum(rows * points[0].size for _, _, rows, points, _ in calls) == 2 * 40 * ys.size
    inv_res = F32(1.0 / cfg.resolution)
    for cos_t, sin_t, _, (qx, qy, no_iz, x_part), _ in calls:
        assert no_iz is None
        fx = (cos_t * qx - sin_t * qy - F32(lo[0])) * inv_res
        k = fx.astype(np.int32)
        assert np.all(k == k[0])
        np.testing.assert_array_equal(x_part, k[0] * ny * nz + iz)
    scorer._lo_x = F32(np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert [a.tobytes() for a in scorer.score(ys, thetas)] == want


def test_each_chunk_is_certified_over_its_own_span():
    """Two tight clusters of particles 0.3 rad and 0.3 m apart: over the
    call's span no point is fast, but in heading order each chunk holds
    one cluster, certified over its own span, and every row reads its deep
    points through the fast kernel."""
    template = interior_template()
    rng = np.random.default_rng(42)
    frame = interior_frame(sensor_points(rng.uniform([1.0, -0.5], [2.8, 0.5], (30, 2)),
                                         0.1, 0.05))
    n = 2 * measurement._CERTIFIED_ROWS
    second = np.arange(n) % 2 == 1  # the clusters interleaved, as resampling leaves them
    ys = 0.1 + 0.3 * second + 0.002 * rng.standard_normal(n)
    thetas = 0.05 + 0.3 * second + 0.0005 * rng.standard_normal(n)
    scorer = PoseScorer(frame, template)
    _, _, fast, _ = scorer._certify(thetas.min(), thetas.max(), ys.min(), ys.max())
    assert not fast.any()
    with recorded_calls() as calls:
        assert_scores_equal_reference(scorer, frame, ys, thetas)
    assert sum(rows for _, _, rows, _, _ in fast_calls(calls)) == n


@pytest.mark.parametrize("far", [6e7, -1e8])
def test_a_far_kernel_point_casts_no_x_index(far):
    """A point about 2**29 or more voxels off on an axis, but under _FAR,
    stays in the kernel, where its k * ny * nz would overflow int32.  Its
    own rounding margin, which grows with its range, keeps it from being
    fast; the near points' margins do not grow with it, and they are fast.
    Scored in chunks on two threads, as the particle filter's proposals
    are, the far point is an edge point of every row, no fast call holds
    it, no RuntimeWarning is raised and every score is the reference's."""
    template = interior_template()
    frame = interior_frame([(2.0, 0.0), (1.5, 0.3), (far, 0.2), (0.4, far)], far=False)
    scorer = PoseScorer(frame, template)
    assert scorer._qx32.size == 4
    rng = np.random.default_rng(43)
    ys, thetas = 0.01 * rng.standard_normal(300), 0.005 * rng.standard_normal(300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with scoring_workers(2), certified_rows(32), recorded_calls() as calls:
            assert_scores_equal_reference(scorer, frame, ys, thetas)
    fast = fast_calls(calls)
    assert all(np.all(np.abs(points[0]) < 10.0) and np.all(np.abs(points[1]) < 10.0)
               for *_, points, _ in fast)
    # the two near points, through the fast kernel in every row
    assert sum(rows * points[0].size for _, _, rows, points, _ in fast) == 2 * ys.size
    edge_rows = [rows for _, _, rows, points, masked in calls
                 if masked and np.any(np.abs(points[0]) > 1e7) | np.any(np.abs(points[1]) > 1e7)]
    assert sum(edge_rows) == ys.size


def test_a_point_1_km_off_leaves_the_near_points_certification_unchanged():
    """Each point's rounding margin follows its own range: adding one
    point 1 km off leaves the near points' interior, fast and band masks
    as they were, chunk by chunk, and every score is the reference's."""
    template = band_template(0.1, GRID_SWEEP_NO_INFO, 3, 5, np.random.default_rng(44))
    rng = np.random.default_rng(45)
    near = sensor_points(rng.uniform([0.3, -1.9], [3.8, 1.9], (60, 2)), 0.05, 0.1)
    ys = 0.05 + 0.01 * rng.standard_normal(800)
    thetas = 0.1 + 0.004 * rng.standard_normal(800)
    order = np.argsort(thetas)
    first = np.arange(8) * 800 // 8  # eight chunks in heading order
    spans = [f.reduceat(v[order], first)[:, None]
             for v in (thetas, ys) for f in (np.minimum, np.maximum)]
    masks = []
    for pts in (near, np.vstack([near, [1000.0, 3.0]])):
        frame = interior_frame(pts, far=False)
        scorer = PoseScorer(frame, template)
        masks.append([m[:, :60].tobytes() for m in scorer._certify(*spans)[:3]])
        with certified_rows(100), recorded_calls() as calls:
            assert_scores_equal_reference(scorer, frame, ys, thetas)
        assert fast_calls(calls)
    assert scorer._qx32.size == 61  # the far point is a kernel point
    assert masks[1] == masks[0]
