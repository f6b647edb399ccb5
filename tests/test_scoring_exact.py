"""PoseScorer.score equals a per-proposal brute force, bit for bit.

The scorer shares heading-only work across runs of equal headings and
packs the rest into chunks; neither may change a single log-likelihood
bit or points-scored count.  The reference below scores one proposal at
a time with the scorer's float32 arithmetic written out step by step.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rowloc.geometry import Box3, PointCloud, PreprocessedFrame, rotation_from_euler
from rowloc.measurement import PoseScorer
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
