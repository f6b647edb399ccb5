"""The blocked RANSAC searches choose what a per-hypothesis loop chooses.

`ransac_ground_plane`, `baselines._ransac_line` and `baselines.baseline2`
score their hypotheses with array operations and re-decide only the
hypotheses near a threshold one at a time.  The references below are the
per-hypothesis loops those searches replaced; the chosen hypothesis index
and the returned plane, line or pair must match them bit for bit.  The
private searches take their draws, tolerance, tilt limit and inlier floor
as arguments and are checked over many of each; the whole fits draw a
fixed number of hypotheses from a fixed seed, and are checked at those.
The voxel grouping is checked against `np.unique(axis=0)` the same way.
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
    PointCloud,
    group_rows,
    ransac_ground_plane,
    voxel_downsample,
)

from conftest import camera_cloud_at, make_wall_cloud_T

SETTINGS = settings(max_examples=60, deadline=None)


# -- per-hypothesis references ----------------------------------------------


def _plane_draws(n_pts, iters, seed):
    return np.random.default_rng(seed).integers(0, n_pts, size=(iters, 3))


def reference_plane_search(pts, idx, min_nz, inlier_tol):
    """(chosen index, count, plane) by one hypothesis at a time; (-1, -1,
    None) if every hypothesis is degenerate or tilted."""
    best_k, best_count, best_plane = -1, -1, None
    for k, (i0, i1, i2) in enumerate(idx):
        plane = geometry._plane_from_points(pts[i0], pts[i1], pts[i2])
        if plane is None or abs(plane.normal[2]) < min_nz:
            continue
        count = int(np.count_nonzero(np.abs(plane.distance(pts)) <= inlier_tol))
        if count > best_count:
            best_k, best_count, best_plane = k, count, plane
    return best_k, best_count, best_plane


def reference_ground_plane(pts, inlier_tol=0.05, iters=200, seed=0, max_tilt=0.6):
    """(chosen index, count, plane, roll, pitch, height) by one hypothesis at a
    time, at ransac_ground_plane's fixed draw count, seed and tilt limit."""
    n_pts = pts.shape[0]
    if n_pts < 3:
        raise DegenerateInputError("too few points")
    idx = _plane_draws(n_pts, iters, seed)
    best_k, best_count, best_plane = reference_plane_search(pts, idx, math.cos(max_tilt),
                                                            inlier_tol)
    if best_plane is None:
        raise DegenerateInputError("no admissible plane")
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


def reference_pair_search(left_pts, right_pts, n_hyp, tol, floor, rng):
    """(chosen index, pair) by one hypothesis at a time, drawing per iteration."""
    best_k, best, best_score = -1, None, math.inf
    for it in range(n_hyp):
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
            inl = np.abs(dist) <= tol
            if np.count_nonzero(inl) < floor * pts.shape[0]:
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
    if kind == "walls":  # mostly two vertical walls: most triples are tilted
        m = n - n // 8
        wall = np.column_stack([rng.uniform(0, 10, m), rng.choice([-1.5, 1.5], m),
                                rng.uniform(0, 2, m)])
        ground = np.column_stack([rng.uniform(0, 10, n - m), rng.uniform(-1.5, 1.5, n - m),
                                  rng.normal(-1.0, 0.01, n - m)])
        return np.vstack([wall, ground])[:, :dim]
    if kind == "scene":  # ground plus walls, slightly tilted
        ground = np.column_stack([rng.uniform(0, 10, n), rng.uniform(-2, 2, n),
                                  rng.normal(-1.0, 0.01, n)])
        wall = np.column_stack([rng.uniform(0, 10, n), np.full(n, 1.5), rng.uniform(-1, 1, n)])
        pts = np.vstack([ground, wall])
        return pts[:, :dim] @ geometry.rotation_from_euler(0.05, -0.03, 0.2).rotation[:dim, :dim]
    raise ValueError(kind)


KINDS = st.sampled_from(["random", "duplicates", "collinear", "on_tol", "scene"])
PLANE_KINDS = st.sampled_from(["random", "duplicates", "collinear", "on_tol", "scene", "walls"])


# -- ground plane -------------------------------------------------------------


@SETTINGS
@given(kind=PLANE_KINDS, n=st.integers(3, 120), seed=st.integers(0, 2**31),
       iters=st.integers(1, 3 * hyp.BLOCK + 5), tol=st.sampled_from([0.05, 0.01, 0.5]),
       max_tilt=st.sampled_from([0.6, 0.2, 1.5]))
def test_ground_plane_matches_per_hypothesis_loop(kind, n, seed, iters, tol, max_tilt):
    pts = _cloud(kind, n, seed, tol)
    idx = _plane_draws(pts.shape[0], iters, seed)
    min_nz = math.cos(max_tilt)
    want_search = reference_plane_search(pts, idx, min_nz, tol)
    assert geometry._best_plane_hypothesis(pts, idx, min_nz, tol) == want_search[:2]
    want = _outcome(reference_ground_plane, pts, tol)
    got = _outcome(ransac_ground_plane, PointCloud(pts), tol)
    if isinstance(want[0], type):
        assert got[0] is want[0]
        return
    assert _bits(got) == _bits(want[2:])


def test_ground_plane_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.05
    pts = _cloud("on_tol", 300, 7, tol)
    idx = _plane_draws(300, 150, 3)
    min_nz = math.cos(0.6)
    calls = []
    original = geometry._plane_hypothesis
    monkeypatch.setattr(geometry, "_plane_hypothesis",
                        lambda *a: calls.append(1) or original(*a))
    got = geometry._best_plane_hypothesis(pts, idx, min_nz, tol)
    assert len(calls) > 1  # the screen deferred
    monkeypatch.undo()
    assert got == reference_plane_search(pts, idx, min_nz, tol)[:2]


def test_ground_plane_screen_margin_covers_rounding_at_large_coordinates():
    """A plane through three points 1 km out, and 401 points whose scalar
    distances from it step one float64 ulp of z at a time through the
    tolerance.  The screen's matmul distances round differently from the
    scalar code's at that scale, so without the margin some point's count
    would be decided by the screen on the wrong side of the tolerance."""
    tol = 0.05
    rng = np.random.default_rng(0)
    abc = np.column_stack([1e3 + rng.uniform(-20, 20, 3), rng.uniform(-20, 20, 3),
                           rng.uniform(-1, 1, 3)])
    plane = geometry._plane_from_points(*abc)
    n = plane.normal
    q = np.array([1e3 + rng.uniform(-20, 20), rng.uniform(-20, 20), 0.0])
    q[2] = (plane.offset - n[0] * q[0] - n[1] * q[1]) / n[2]
    at_tol = q + tol * n
    steps = np.arange(-200, 201)
    z = (np.float64(at_tol[2]).view(np.int64) + steps).view(np.float64)
    pts = np.vstack([abc, np.column_stack([np.full(steps.size, at_tol[0]),
                                           np.full(steps.size, at_tol[1]), z])])
    dist = np.abs(plane.distance(pts[3:]))
    assert dist.min() <= tol < dist.max()
    assert np.all(np.abs(dist - tol) < hyp.margin(pts))
    idx = np.array([[0, 1, 2]])
    min_nz = math.cos(0.6)
    assert geometry._best_plane_hypothesis(pts, idx, min_nz, tol) == \
        reference_plane_search(pts, idx, min_nz, tol)[:2]


def _one_wall(n, seed):
    """n points on the vertical plane y = 1.5: every triple is tilted or degenerate."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, 10, n), np.full(n, 1.5), rng.uniform(0, 2, n)])


def _tilted_dropped(pts, idx, min_nz):
    """Hypotheses the per-hypothesis loop rejects as tilted, by index; the
    hypotheses that reach the distance screen are the others."""
    tilted = []
    for k, i in enumerate(idx):
        plane = geometry._plane_from_points(*pts[i])
        if plane is not None:
            # far from the threshold, so the screen cannot be unsure of it
            assert abs(abs(plane.normal[2]) - min_nz) > 1e-6
            if abs(plane.normal[2]) < min_nz:
                tilted.append(k)
    return tilted


@pytest.mark.parametrize("pts, iters", [
    (_cloud("walls", 400, 11, 0.05), 200),
    (_cloud("walls", 60, 12, 0.05), 3 * hyp.BLOCK + 5),
    (_one_wall(300, 13), 200),  # every hypothesis tilted: nothing to count
])
def test_tilted_hypotheses_reach_no_distance_count(monkeypatch, pts, iters):
    idx = _plane_draws(pts.shape[0], iters, 5)
    min_nz = math.cos(0.6)
    rows = []
    original = hyp.count_bounds
    monkeypatch.setattr(hyp, "count_bounds",
                        lambda dist, *a: rows.append(dist.shape[0]) or original(dist, *a))
    got = geometry._best_plane_hypothesis(pts, idx, min_nz, 0.05)
    monkeypatch.undo()
    tilted = _tilted_dropped(pts, idx, min_nz)
    assert len(tilted) >= iters // 4  # the walls make many triples tilted
    assert sum(rows) == iters - len(tilted)
    assert got == reference_plane_search(pts, idx, min_nz, 0.05)[:2]


@pytest.mark.parametrize("pts, exc", [
    (np.zeros((2, 3)), DegenerateInputError),  # too few points
    (np.zeros((5, 3)), DegenerateInputError),  # every hypothesis degenerate
    (np.arange(30.0).reshape(10, 3), DegenerateInputError),  # collinear
    (np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1.0]]), DegenerateInputError),  # a vertical wall
    (np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]), None),  # three points: one plane
    (np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.inf]]), ValueError),
    (_one_wall(200, 3), DegenerateInputError),  # every hypothesis tilted
])
def test_ground_plane_edge_cases_match(pts, exc):
    got = _outcome(ransac_ground_plane, PointCloud(pts))
    if not np.isfinite(pts).all():
        # rejected up front; the loop fails later, in Plane, with a bare
        # ValueError, on a normal made of infinite or NaN components (whether
        # numpy warns on the way depends on which triple comes first)
        with np.errstate(all="ignore"):
            want = _outcome(reference_ground_plane, pts)
        assert got[0] is DegenerateInputError and want[0] is exc
        return
    want = _outcome(reference_ground_plane, pts)
    if exc is None:
        assert _bits(got) == _bits(want[2:])
    else:
        assert isinstance(got[0], type) and issubclass(got[0], exc) and got[0] is want[0]
    idx = _plane_draws(pts.shape[0], 50, 1)
    min_nz = math.cos(0.6)
    want_search = reference_plane_search(pts, idx, min_nz, 0.05)
    assert geometry._best_plane_hypothesis(pts, idx, min_nz, 0.05) == want_search[:2]


def reference_plane_from_points(p0, p1, p2):
    """`_plane_from_points` with the normal taken by np.cross."""
    n = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        return None
    n = n / norm
    return geometry.Plane(n, float(n @ p0))


@pytest.mark.parametrize("triples", [
    np.random.default_rng(1).normal(0.0, 1.0, (500, 3, 3)),
    # small integers: exact zeros and cancellations, so the sign of a zero shows
    np.random.default_rng(9).integers(-2, 3, (500, 3, 3)).astype(np.float64),
    np.random.default_rng(2).normal(0.0, 1e100, (200, 3, 3)),  # u x v overflows
    np.random.default_rng(3).normal(5e7, 1e3, (200, 3, 3)),  # large, nearly equal
    np.random.default_rng(4).normal(0.0, 1e-6, (200, 3, 3)),  # norm near the 1e-12 floor
    np.random.default_rng(5).normal(0.0, 1e-9, (200, 3, 3)),  # every one below it
    # collinear: p2 on the line through p0 and p1
    np.stack([np.zeros((200, 3)), np.ones((200, 3)),
              np.random.default_rng(6).uniform(-3, 3, (200, 1)) * np.ones(3)], axis=1),
    np.random.default_rng(7).normal(0.0, 1.0, (200, 1, 3))[:, [0, 0, 0]],  # duplicates
    np.random.default_rng(8).normal(0.0, 1.0, (200, 2, 3))[:, [0, 1, 0]],
])
def test_plane_from_points_matches_np_cross(triples):
    with np.errstate(all="ignore"):
        for p in triples:
            want = _outcome(reference_plane_from_points, *p)
            assert _bits(_outcome(geometry._plane_from_points, *p)) == _bits(want)


# -- baseline line RANSAC -----------------------------------------------------


@SETTINGS
@given(kind=KINDS, n=st.integers(1, 120), seed=st.integers(0, 2**31),
       iters=st.integers(1, 3 * hyp.BLOCK + 5), tol=st.sampled_from([0.1, 0.02, 1.0, -1.0]))
def test_line_ransac_matches_per_hypothesis_loop(kind, n, seed, iters, tol):
    pts = _cloud(kind, n, seed, abs(tol), dim=2)
    pairs = np.random.default_rng(seed).integers(0, pts.shape[0], (iters, 2))
    want = _outcome(reference_line, pts, pairs, tol)
    if not isinstance(want[0], type):
        assert baselines._best_line_hypothesis(pts, pairs, tol) == want[:2]
    # the whole fit, at its fixed draw count of 200
    pairs = np.random.default_rng(seed).integers(0, pts.shape[0], (200, 2))
    want = _outcome(reference_line, pts, pairs, tol)
    got = _outcome(baselines._ransac_line, pts, tol, np.random.default_rng(seed))
    if isinstance(want[0], type):
        assert got[0] is want[0] is SideMissingError
        return
    assert _bits(got) == _bits(want[2])


def test_line_ransac_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.1
    pts = _cloud("on_tol", 200, 5, tol, dim=2)
    pairs = np.random.default_rng(4).integers(0, 200, (150, 2))
    calls = []
    original = baselines._line_hypothesis
    monkeypatch.setattr(baselines, "_line_hypothesis", lambda *a: calls.append(1) or original(*a))
    got = baselines._best_line_hypothesis(pts, pairs, tol)
    assert len(calls) > 1
    monkeypatch.undo()
    assert got == reference_line(pts, pairs, tol)[:2]


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
    want_k, want = reference_pair_search(left, right, n_hyp, tol, frac,
                                         np.random.default_rng(seed))
    draws = baselines._pair_draws(np.random.default_rng(seed), left.shape[0], right.shape[0],
                                  n_hyp)
    got_k, got = baselines._best_pair_hypothesis(left, right, draws, tol, frac)
    assert got_k == want_k
    assert _bits(got) == _bits(want)


def test_pair_search_ties_go_to_the_first_hypothesis():
    # two points a side: many hypotheses repeat a pair with the same score
    left = np.array([[0.0, 1.5], [3.0, 1.6]])
    right = np.array([[0.0, -1.5], [3.0, -1.4]])
    for seed in range(20):
        want = reference_pair_search(left, right, 200, 0.5, 0.0, np.random.default_rng(seed))
        draws = baselines._pair_draws(np.random.default_rng(seed), 2, 2, 200)
        got = baselines._best_pair_hypothesis(left, right, draws, 0.5, 0.0)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def test_pair_search_points_at_the_tolerance_are_rechecked(monkeypatch):
    tol = 0.3
    left, right = _sides("on_tol", 150, 150, 9, tol)
    calls = []
    original = baselines._pair_hypothesis
    monkeypatch.setattr(baselines, "_pair_hypothesis", lambda *a: calls.append(1) or original(*a))
    draws = baselines._pair_draws(np.random.default_rng(2), 150, 150, 200)
    got = baselines._best_pair_hypothesis(left, right, draws, tol, 0.3)
    assert len(calls) > 1
    monkeypatch.undo()
    want = reference_pair_search(left, right, 200, tol, 0.3, np.random.default_rng(2))
    assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def test_a_pair_hypothesis_the_left_side_rejects_reaches_no_right_side_distance(monkeypatch):
    """A scattered left row and a tight right one: most hypotheses fail the
    inlier floor on the left side.  Their right side's distances are never
    taken, each admitted hypothesis takes them once, and the pair found is
    the per-hypothesis loop's."""
    rng = np.random.default_rng(31)
    left = np.column_stack([rng.uniform(0.0, 8.0, 90), 1.5 + 0.3 * rng.standard_normal(90)])
    right = np.column_stack([rng.uniform(0.0, 8.0, 70), -1.5 + 0.05 * rng.standard_normal(70)])
    n_hyp, tol, floor = 3 * hyp.BLOCK + 5, 0.1, 0.3
    draws = baselines._pair_draws(np.random.default_rng(4), 90, 70, n_hyp)
    rows = {90: 0, 70: 0}  # rows of distances taken, by the side's point count
    original = hyp.count_bounds

    def counted(dist, *args):
        rows[dist.shape[1]] += dist.shape[0]
        return original(dist, *args)

    monkeypatch.setattr(hyp, "count_bounds", counted)
    got = baselines._best_pair_hypothesis(left, right, draws, tol, floor)
    monkeypatch.undo()
    drawn = admitted = 0  # the non-degenerate hypotheses, and those the left side admits
    for it, (i, j, k) in enumerate(draws):
        src, other = (left, right) if it % 2 == 0 else (right, left)
        if i == j:
            continue
        drawn += 1
        line = Line2(src[i] if it % 2 == 0 else other[k], src[j] - src[i])
        dist = np.abs(line.distance(left))
        # far from the tolerance: the screen's count is exact
        assert np.all(np.abs(dist - tol) > 1e-6)
        admitted += np.count_nonzero(dist <= tol) >= max(floor * 90, 1)
    assert rows[90] == drawn > n_hyp - 10
    assert 0 < rows[70] == admitted < drawn // 2
    want = reference_pair_search(left, right, n_hyp, tol, floor, np.random.default_rng(4))
    assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def test_baseline2_matches_reference_on_wall_scenes():
    params = BaselineParams()
    wall = make_wall_cloud_T(step=0.2)
    for seed in range(4):
        cloud = camera_cloud_at(wall, 0.1 * seed - 0.15, 0.04 * seed - 0.06)
        y, theta, pair = baselines.baseline2(cloud, params, seed=seed)
        left, right = baselines._split_sides(baselines._level_and_project(cloud, params))
        _, want = reference_pair_search(left, right, 500, params.line_inlier_tol, 0.3,
                                        np.random.default_rng(seed))
        assert _bits(pair) == _bits(want)
        want_y, want_theta = baselines._centerline_to_pose(
            want.left.direction, 0.5 * (want.left.offset + want.right.offset))
        assert _bits((y, theta)) == _bits((want_y, want_theta))


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_whole_fits_search_the_draws_of_the_references(monkeypatch):
    # a draw count, seed, tilt limit or floor off by a little rarely changes
    # the winner, so the whole-fit comparisons above cannot pin them
    planes = _recording(monkeypatch, geometry, "_best_plane_hypothesis")
    lines = _recording(monkeypatch, baselines, "_best_line_hypothesis")
    pairs = _recording(monkeypatch, baselines, "_best_pair_hypothesis")
    cloud = camera_cloud_at(make_wall_cloud_T(step=0.2), 0.05, 0.02)
    ransac_ground_plane(cloud)
    baselines.baseline1(cloud, BaselineParams(), seed=3)
    baselines.baseline2(cloud, BaselineParams(), seed=3)
    pts, idx, min_nz, tol = planes[0]
    assert idx.tobytes() == _plane_draws(pts.shape[0], 200, 0).tobytes()
    assert (min_nz, tol) == (math.cos(0.6), 0.05)
    rng = np.random.default_rng(3)
    assert len(lines) == 2  # left, then right
    for points, drawn, tol in lines:
        assert drawn.tobytes() == rng.integers(0, points.shape[0], (200, 2)).tobytes()
        assert tol == 0.1
    left, right, draws, tol, floor = pairs[0]
    want = baselines._pair_draws(np.random.default_rng(3), left.shape[0], right.shape[0], 500)
    assert draws.tobytes() == want.tobytes()
    assert (tol, floor) == (0.1, 0.3)


def test_baseline_error_paths():
    params = BaselineParams()
    with pytest.raises(DegenerateInputError):  # no ground plane to level with
        baselines.baseline2(PointCloud(np.zeros((2, 3))), params)
    with pytest.raises(DegenerateInputError):
        baselines.baseline1(PointCloud(np.zeros((2, 3))), params)
    wall = make_wall_cloud_T(step=0.2)
    strict = BaselineParams(line_inlier_tol=-1.0)  # no point is an inlier
    with pytest.raises(SideMissingError, match="inlier floor"):
        baselines.baseline2(camera_cloud_at(wall, 0.0, 0.3), strict)
    no_draws = np.zeros((0, 3), dtype=np.int64)
    assert baselines._best_pair_hypothesis(np.ones((3, 2)), -np.ones((3, 2)), no_draws,
                                           0.1, 0.3) == (-1, None)
    with pytest.raises(SideMissingError):
        baselines._ransac_line(np.ones((1, 2)), 0.1, np.random.default_rng(0))
    with pytest.raises(SideMissingError, match="no valid line"):
        baselines._ransac_line(np.ones((6, 2)), 0.1, np.random.default_rng(0))


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
    got = voxel_downsample(PointCloud(pts), leaf)
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


def _wide(lo, hi, n, k, seed):
    """(2n, k) int64 rows drawn from [lo, hi] with repeats; the first and
    last rows hold lo and hi, so each column spans hi - lo + 1."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(lo, hi, (n, k), dtype=np.int64, endpoint=True)
    rows = rows[rng.integers(0, n, 2 * n)]
    rows[0], rows[-1] = lo, hi
    return rows


I64 = np.iinfo(np.int64)
GROUP_CASES = [  # (rows, packed into one key)
    *[(np.zeros((0, k), dtype=np.int64), False) for k in range(1, 5)],
    *[(np.full((1, k), -7, dtype=np.int64), True) for k in range(1, 5)],
    *[(_wide(-5, 3, 40, k, k), True) for k in range(1, 5)],
    (_wide(-2**40, 2**40, 50, 2, 1), False),  # a span product of 2**82
    (_wide(-2**62, 2**62 - 2, 50, 1, 2), True),  # span 2**63 - 1: the largest that fits
    (_wide(-2**62, 2**62 - 1, 50, 1, 3), False),  # span 2**63
    (_wide(I64.min, I64.max, 50, 1, 4), False),  # span 2**64
    (np.column_stack([_wide(-2**50, 2**50, 30, 1, 5), _wide(0, 3, 30, 2, 6)]), True),
    (np.column_stack([_wide(I64.min, I64.min + 1, 30, 1, 7),
                      _wide(I64.max - 2, I64.max, 30, 3, 8)]), True),
]


@pytest.mark.parametrize("rows, packed", GROUP_CASES)
def test_group_rows_matches_unique_on_both_branches(rows, packed):
    assert (geometry._packed_key(rows) is not None) == packed
    inverse, first = group_rows(rows)
    uniq, want_first, want_inverse = np.unique(rows, axis=0, return_index=True,
                                               return_inverse=True)
    np.testing.assert_array_equal(rows[first], uniq)
    np.testing.assert_array_equal(first, want_first)  # each group's first row
    np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))


@pytest.mark.parametrize("extent, leaf, packed", [
    # over 2**22 cells on two axes, 2**18 on the third: the span product fits
    ((4.3e6, 4.3e6, 2.6e5), 1.0, True),
    ((4e7, 4e7, 4e7), 0.5, False),  # 8e7 cells an axis: past int64
])
def test_voxel_downsample_beyond_21_bits_an_axis(extent, leaf, packed):
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.5, 0.5, (300, 3)) * extent
    pts = np.vstack([pts, pts[:100] + 0.1 * leaf])  # some cells hold two points
    cells = np.floor(pts / leaf).astype(np.int64)
    assert (np.ptp(cells, axis=0) > 2**21).sum() >= 2
    assert (geometry._packed_key(cells) is not None) == packed
    got = voxel_downsample(PointCloud(pts), leaf)
    assert got.points.tobytes() == reference_voxel_downsample(pts, leaf).tobytes()
