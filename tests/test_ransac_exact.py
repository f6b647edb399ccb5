"""The blocked RANSAC searches choose what a per-hypothesis loop chooses.

`ransac_ground_plane`, `baselines._ransac_line` and `baselines.baseline2`
score their hypotheses with array operations and re-decide only the
hypotheses near a threshold one at a time.  The references below are the
per-hypothesis loops those searches replaced; the chosen hypothesis index
and the returned plane, line or pair must match them bit for bit.  The
voxel grouping is checked against `np.unique(axis=0)` the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowloc import _hypotheses as hyp
from rowloc import baselines, geometry
from rowloc.baselines import BaselineParams, Line2, RowLinePair, SideMissingError
from rowloc.geometry import (
    DegenerateInputError,
    LowConfidenceFitError,
    PointCloud,
    group_rows,
    ransac_ground_plane,
    voxel_downsample,
)

from conftest import camera_cloud_at, make_wall_cloud_T

SETTINGS = settings(max_examples=60, deadline=None)


# -- per-hypothesis references ----------------------------------------------


def reference_ground_plane(pts, iters=200, inlier_tol=0.05, seed=0, min_inlier_ratio=0.0,
                           max_tilt=0.6):
    """(chosen index, count, plane, roll, pitch, height) by one hypothesis at a time."""
    n_pts = pts.shape[0]
    if n_pts < 3 or iters < 1:
        raise DegenerateInputError("too few points or iterations")
    idx = np.random.default_rng(seed).integers(0, n_pts, size=(iters, 3))
    min_nz = math.cos(max_tilt)
    best_k, best_count, best_plane = -1, -1, None
    for k, (i0, i1, i2) in enumerate(idx):
        plane = geometry._plane_from_points(pts[i0], pts[i1], pts[i2])
        if plane is None or abs(plane.normal[2]) < min_nz:
            continue
        count = int(np.count_nonzero(np.abs(plane.distance(pts)) <= inlier_tol))
        if count > best_count:
            best_k, best_count, best_plane = k, count, plane
    if best_plane is None:
        raise DegenerateInputError("no admissible plane")
    if best_count < min_inlier_ratio * n_pts:
        raise LowConfidenceFitError("below floor")
    plane = geometry._lsq_plane(pts[np.abs(best_plane.distance(pts)) <= inlier_tol])
    if plane.normal[2] < 0:
        plane = geometry.Plane(-plane.normal, -plane.offset)
    return (best_k, best_count, plane, *geometry.plane_to_attitude(plane))


def reference_line(points, pairs, tol):
    """(chosen index, count, refit line) by one pair at a time."""
    if points.shape[0] < 2:
        raise SideMissingError("too few points")
    best_k, best_count, best_inliers = -1, -1, None
    for k, (i, j) in enumerate(pairs):
        if i == j:
            continue
        d = points[j] - points[i]
        if np.linalg.norm(d) < 1e-9:
            continue
        dist = np.abs(Line2(points[i], d).distance(points))
        count = int(np.count_nonzero(dist <= tol))
        if count > best_count:
            best_k, best_count, best_inliers = k, count, dist <= tol
    if best_inliers is None or best_count < 2:
        raise SideMissingError("no valid line")
    return best_k, best_count, baselines._refit_line(points[best_inliers])


def reference_pair_search(left_pts, right_pts, params, rng):
    """(chosen index, pair) by one hypothesis at a time, drawing per iteration."""
    best_k, best, best_score = -1, None, math.inf
    for it in range(params.n_pair_hypotheses):
        src, other = (left_pts, right_pts) if it % 2 == 0 else (right_pts, left_pts)
        i, j = rng.integers(0, src.shape[0], 2)
        k = rng.integers(0, other.shape[0])
        d = src[j] - src[i]
        if np.linalg.norm(d) < 1e-9:
            continue
        line_a, line_b = Line2(src[i], d), Line2(other[k], d)
        left_line, right_line = (line_a, line_b) if it % 2 == 0 else (line_b, line_a)
        score, ok = 0.0, True
        for line, pts in ((left_line, left_pts), (right_line, right_pts)):
            dist = line.distance(pts)
            inl = np.abs(dist) <= params.line_inlier_tol
            if np.count_nonzero(inl) < params.min_inlier_fraction * pts.shape[0]:
                ok = False
                break
            score += float(np.mean(dist[inl] ** 2))
        if ok and score < best_score:
            best_k, best, best_score = it, RowLinePair(left_line, right_line), score
    return best_k, best


def _outcome(fn, *args, **kwargs):
    """A call's result, or its exception type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def _bits(x):
    """Bit pattern of a nested result, so -0.0 != 0.0 and NaN == NaN."""
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, geometry.Plane):
        return ("plane", x.normal.tobytes(), _bits(x.offset))
    if isinstance(x, Line2):
        return ("line", x.point.tobytes(), x.direction.tobytes())
    if isinstance(x, RowLinePair):
        return ("pair", _bits(x.left), _bits(x.right))
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    return x


# -- clouds -----------------------------------------------------------------


def _cloud(kind, n, seed, tol, dim=3):
    """Test clouds; "on_tol" puts points exactly at distance tol from the
    plane (or line) through the others, so the screen must defer to the
    scalar code."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(0.0, rng.uniform(0.1, 10.0), (n, dim))
    if kind == "duplicates":
        base = rng.normal(0.0, 1.0, (max(1, n // 4), dim))
        return base[rng.integers(0, base.shape[0], n)]
    if kind == "collinear":
        t = rng.uniform(-5.0, 5.0, (n, 1))
        return t * rng.normal(0.0, 1.0, dim) + rng.normal(0.0, 1.0, dim)
    if kind == "on_tol":
        pts = np.zeros((n, dim))
        pts[:, :dim - 1] = rng.integers(-20, 21, (n, dim - 1)) * 0.25
        pts[:, dim - 1] = rng.choice([0.0, tol, -tol, 2.0 * tol], n)
        return pts
    if kind == "scene":  # ground plus walls, slightly tilted
        ground = np.column_stack([rng.uniform(0, 10, n), rng.uniform(-2, 2, n),
                                  rng.normal(-1.0, 0.01, n)])
        wall = np.column_stack([rng.uniform(0, 10, n), np.full(n, 1.5), rng.uniform(-1, 1, n)])
        pts = np.vstack([ground, wall])
        return pts[:, :dim] @ geometry.rotation_from_euler(0.05, -0.03, 0.2).rotation[:dim, :dim]
    raise ValueError(kind)


KINDS = st.sampled_from(["random", "duplicates", "collinear", "on_tol", "scene"])


# -- ground plane -------------------------------------------------------------


@SETTINGS
@given(kind=KINDS, n=st.integers(3, 120), seed=st.integers(0, 2**31),
       iters=st.integers(1, 3 * hyp.BLOCK + 5), tol=st.sampled_from([0.05, 0.01, 0.5]),
       max_tilt=st.sampled_from([0.6, 0.2, 1.5]), floor=st.sampled_from([0.0, 0.5]))
def test_ground_plane_matches_per_hypothesis_loop(kind, n, seed, iters, tol, max_tilt, floor):
    pts = _cloud(kind, n, seed, tol)
    kw = dict(iters=iters, inlier_tol=tol, seed=seed, min_inlier_ratio=floor, max_tilt=max_tilt)
    want = _outcome(reference_ground_plane, pts, **kw)
    got = _outcome(ransac_ground_plane, PointCloud(pts), **kw)
    if isinstance(want[0], type):
        assert got[0] is want[0]
        return
    assert _bits(got) == _bits(want[2:])
    idx = np.random.default_rng(seed).integers(0, pts.shape[0], size=(iters, 3))
    assert geometry._best_plane_hypothesis(pts, idx, math.cos(max_tilt), tol) == want[:2]


def test_ground_plane_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.05
    pts = _cloud("on_tol", 300, 7, tol)
    calls = []
    original = geometry._plane_hypothesis
    monkeypatch.setattr(geometry, "_plane_hypothesis",
                        lambda *a: calls.append(1) or original(*a))
    got = ransac_ground_plane(PointCloud(pts), iters=150, inlier_tol=tol, seed=3)
    assert len(calls) > 1  # the screen deferred, not only the final refit
    monkeypatch.undo()
    assert _bits(got) == _bits(reference_ground_plane(pts, 150, tol, 3)[2:])


@pytest.mark.parametrize("pts, exc", [
    (np.zeros((2, 3)), DegenerateInputError),  # too few points
    (np.zeros((5, 3)), DegenerateInputError),  # every hypothesis degenerate
    (np.arange(30.0).reshape(10, 3), DegenerateInputError),  # collinear
    (np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1.0]]), DegenerateInputError),  # a vertical wall
    (np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]), None),  # three points: one plane
    (np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.inf]]), ValueError),
])
def test_ground_plane_edge_cases_match(pts, exc):
    want = _outcome(reference_ground_plane, pts, iters=50, seed=1)
    got = _outcome(ransac_ground_plane, PointCloud(pts), iters=50, seed=1)
    if exc is None:
        assert _bits(got) == _bits(want[2:])
    else:
        assert isinstance(got[0], type) and issubclass(got[0], exc) and got[0] is want[0]


def test_ground_plane_low_confidence_path_matches():
    pts = _cloud("scene", 100, 2, 0.05)
    with pytest.raises(LowConfidenceFitError):
        reference_ground_plane(pts, min_inlier_ratio=0.9)
    with pytest.raises(LowConfidenceFitError):
        ransac_ground_plane(PointCloud(pts), min_inlier_ratio=0.9)


# -- baseline line RANSAC -----------------------------------------------------


@SETTINGS
@given(kind=KINDS, n=st.integers(1, 120), seed=st.integers(0, 2**31),
       iters=st.integers(1, 3 * hyp.BLOCK + 5), tol=st.sampled_from([0.1, 0.02, 1.0, -1.0]))
def test_line_ransac_matches_per_hypothesis_loop(kind, n, seed, iters, tol):
    pts = _cloud(kind, n, seed, abs(tol), dim=2)
    params = BaselineParams(ransac_iters=iters, line_inlier_tol=tol)
    pairs = np.random.default_rng(seed).integers(0, pts.shape[0], (iters, 2))
    want = _outcome(reference_line, pts, pairs, tol)
    got = _outcome(baselines._ransac_line, pts, params, np.random.default_rng(seed))
    if isinstance(want[0], type):
        assert got[0] is want[0] is SideMissingError
        return
    assert _bits(got) == _bits(want[2])
    assert baselines._best_line_hypothesis(pts, pairs, tol) == want[:2]


def test_line_ransac_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.1
    pts = _cloud("on_tol", 200, 5, tol, dim=2)
    params = BaselineParams(ransac_iters=150, line_inlier_tol=tol)
    calls = []
    original = baselines._line_hypothesis
    monkeypatch.setattr(baselines, "_line_hypothesis", lambda *a: calls.append(1) or original(*a))
    got = baselines._ransac_line(pts, params, np.random.default_rng(4))
    assert len(calls) > 1
    monkeypatch.undo()
    pairs = np.random.default_rng(4).integers(0, 200, (150, 2))
    assert _bits(got) == _bits(reference_line(pts, pairs, tol)[2])


# -- baseline2 pair search ----------------------------------------------------


@pytest.mark.parametrize("n_left, n_right", [(623, 180), (5, 7), (1000, 3), (2**20, 17), (1, 1)])
def test_pair_draws_reproduce_the_per_iteration_stream(n_left, n_right):
    a, b = np.random.default_rng(n_left), np.random.default_rng(n_left)
    want = []
    for it in range(501):
        src, other = (n_left, n_right) if it % 2 == 0 else (n_right, n_left)
        i, j = a.integers(0, src, 2)
        want.append((i, j, a.integers(0, other)))
    np.testing.assert_array_equal(baselines._pair_draws(b, n_left, n_right, 501), want)
    assert a.integers(0, 2**62) == b.integers(0, 2**62)  # same generator state after


def _sides(kind, n_left, n_right, seed, tol):
    left = _cloud(kind, n_left, seed, tol, dim=2)
    right = _cloud(kind, n_right, seed + 1, tol, dim=2)
    if kind in ("on_tol", "scene", "collinear"):  # put the sides apart, as rows are
        left[:, 1] += 1.5
        right[:, 1] -= 1.5
    return left, right


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mean of no inliers is NaN
@SETTINGS
@given(kind=KINDS, n_left=st.integers(1, 80), n_right=st.integers(1, 80),
       seed=st.integers(0, 2**31), n_hyp=st.integers(0, 3 * hyp.BLOCK + 5),
       tol=st.sampled_from([0.1, 0.3, 2.0]), frac=st.sampled_from([0.3, 0.0, 0.9]))
def test_pair_search_matches_per_hypothesis_loop(kind, n_left, n_right, seed, n_hyp, tol, frac):
    left, right = _sides(kind, n_left, n_right, seed, tol)
    params = BaselineParams(n_pair_hypotheses=n_hyp, line_inlier_tol=tol, min_inlier_fraction=frac)
    want_k, want = reference_pair_search(left, right, params, np.random.default_rng(seed))
    draws = baselines._pair_draws(np.random.default_rng(seed), left.shape[0], right.shape[0],
                                  n_hyp)
    got_k, got = baselines._best_pair_hypothesis(left, right, draws, params)
    assert got_k == want_k
    assert _bits(got) == _bits(want)


def test_pair_search_ties_go_to_the_first_hypothesis():
    # two points a side: many hypotheses repeat a pair with the same score
    left = np.array([[0.0, 1.5], [3.0, 1.6]])
    right = np.array([[0.0, -1.5], [3.0, -1.4]])
    params = BaselineParams(n_pair_hypotheses=200, min_inlier_fraction=0.0, line_inlier_tol=0.5)
    for seed in range(20):
        want = reference_pair_search(left, right, params, np.random.default_rng(seed))
        draws = baselines._pair_draws(np.random.default_rng(seed), 2, 2, 200)
        got = baselines._best_pair_hypothesis(left, right, draws, params)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def test_pair_search_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.3
    left, right = _sides("on_tol", 150, 150, 9, tol)
    params = BaselineParams(n_pair_hypotheses=200, line_inlier_tol=tol)
    calls = []
    original = baselines._pair_hypothesis
    monkeypatch.setattr(baselines, "_pair_hypothesis", lambda *a: calls.append(1) or original(*a))
    draws = baselines._pair_draws(np.random.default_rng(2), 150, 150, 200)
    got = baselines._best_pair_hypothesis(left, right, draws, params)
    assert len(calls) > 1
    monkeypatch.undo()
    want = reference_pair_search(left, right, params, np.random.default_rng(2))
    assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def test_baseline2_matches_reference_on_wall_scenes():
    params = BaselineParams(n_pair_hypotheses=300)
    wall = make_wall_cloud_T(step=0.2)
    for seed in range(4):
        cloud = camera_cloud_at(wall, 0.1 * seed - 0.15, 0.04 * seed - 0.06)
        y, theta, pair = baselines.baseline2(cloud, params, seed=seed)
        left, right = baselines._split_sides(baselines._level_and_project(cloud, params), params)
        _, want = reference_pair_search(left, right, params, np.random.default_rng(seed))
        assert _bits(pair) == _bits(want)
        want_y, want_theta = baselines._centerline_to_pose(
            want.left.direction, 0.5 * (want.left.offset + want.right.offset))
        assert _bits((y, theta)) == _bits((want_y, want_theta))


def test_baseline_error_paths():
    params = BaselineParams()
    with pytest.raises(DegenerateInputError):  # no ground plane to level with
        baselines.baseline2(PointCloud(np.zeros((2, 3))), params)
    with pytest.raises(DegenerateInputError):
        baselines.baseline1(PointCloud(np.zeros((2, 3))), params)
    wall = make_wall_cloud_T(step=0.2)
    strict = BaselineParams(min_inlier_fraction=1.0, line_inlier_tol=1e-6)
    with pytest.raises(SideMissingError, match="inlier floor"):
        baselines.baseline2(camera_cloud_at(wall, 0.0, 0.3), strict)
    no_draws = np.zeros((0, 3), dtype=np.int64)
    assert baselines._best_pair_hypothesis(np.ones((3, 2)), -np.ones((3, 2)), no_draws,
                                           params) == (-1, None)
    with pytest.raises(SideMissingError):
        baselines._ransac_line(np.ones((1, 2)), params, np.random.default_rng(0))
    with pytest.raises(SideMissingError, match="no valid line"):
        baselines._ransac_line(np.ones((6, 2)), params, np.random.default_rng(0))


# -- voxel grouping -----------------------------------------------------------


def reference_voxel_downsample(pts, leaf):
    cells = np.floor(pts / leaf).astype(np.int64)
    _, inverse, counts = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((counts.shape[0], 3))
    np.add.at(sums, inverse.reshape(-1), pts)
    return sums / counts[:, None]


@SETTINGS
@given(n=st.integers(1, 400), seed=st.integers(0, 2**31),
       scale=st.sampled_from([1e-3, 1.0, 50.0, 1e6, 1e12]),
       leaf=st.sampled_from([0.05, 0.1, 1.0, 7.3]), dup=st.booleans())
def test_voxel_downsample_matches_unique_reference(n, seed, scale, leaf, dup):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, scale, (n, 3)) - rng.uniform(0, scale)
    if dup:
        pts = pts[rng.integers(0, n, 3 * n)]
    got = voxel_downsample(PointCloud(pts, "C"), leaf)
    assert got.frame == "C"
    assert got.points.tobytes() == reference_voxel_downsample(pts, leaf).tobytes()


@SETTINGS
@given(n=st.integers(0, 300), k=st.integers(1, 4), seed=st.integers(0, 2**31),
       span=st.sampled_from([1, 3, 2**40]))
def test_group_rows_matches_unique(n, k, seed, span):
    rows = np.random.default_rng(seed).integers(-span, span + 1, (n, k))
    inverse, first = group_rows(rows)
    uniq, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    np.testing.assert_array_equal(rows[first], uniq)
    np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
