"""Template-based sensor model.

The probability of a point cloud given a pose proposal is the product of
per-point template lookups; we work with the sum of logs to avoid
underflow, and floor each per-point probability so a single zero voxel
cannot annihilate the score.  The argmax over proposals is unchanged.

One box decides which points are scored: the template's grid box,
`template_range`.  A point that a proposal places inside it reads its
voxel (out-of-row voxels hold the no-information frequency) and counts
as scored; every other point pays the no-information probability and is
not counted.  Every preprocessed point thus contributes to every
proposal's score.  Without the constant penalty, proposals that rotate
informative points out of the box would shed their negative log terms
and beat the true pose on raw sum.  Uniform, particle-filter and grid
estimation all score this way.

Exactness contract: `PoseScorer.score` returns, bit for bit, what
scoring each proposal on its own would return.  Runs of consecutive
proposals with one heading (a theta-major grid) share that heading's
rotation, x index and x/z masks: each of their cells reads the terms of
its run's heading row.  Every proposal is scored in chunks, of shared or
of distinct headings.  The float32 arithmetic per point and proposal is
the same either way, and each row is summed alone, so neither the
log-likelihoods nor the points-scored counts depend on how proposals are
grouped.  Nor do they depend on which thread scores a row: in a call
with _MIN_THREADED_ROWS or more rows of distinct headings (the particle
filter's), its chunks are scored by one thread per CPU the process may
run on (`os.sched_getaffinity`), the calling thread and a pool's, each
taking the next chunk left until none is.  When the calling thread finds
none left, it cancels the pool tasks no thread has started and waits for
the others, raising their errors; so no thread writes to a call's arrays
after it returns.  Worker threads run only `_score_block`; `score`
itself, its certification included, and the bound pass of `score_top_k`
stay on the calling thread, and so do calls with fewer rows, such as the
rounds of `score_top_k`.  With one CPU, or one chunk, no thread is
started.  `score`, `score_top_k` and each pool task run under a ufunc
buffer of _BUFSIZE elements, the thread's own size restored on exit: it
makes numpy 2.4's broadcast operations over (rows x points) arrays about
four times faster, and changes only how numpy chunks them, which no
elementwise operation or exact sum (below) depends on.  The log table of
a (template, p_floor) and its max-pooled copies are one `LogTable`, built
once and shared by every scorer of the pair (the grid is read-only).

Exact sums by construction.  Every entry of the log table, the no-info
slot included, is rounded to a multiple of 2**-q, with q the largest
value for which every |log| * 2**q < 2**24, log(p_floor) included
(`log_table`; q = 20 at p_floor 1e-4).  Each entry is then an integer
below 2**24 times 2**-q, exact in float32, and every partial sum of up to
_MAX_POINTS = 2**29 entries is an integer below 2**53 times 2**-q, exact
in float64: a frame's float64 sums are exact in any order.  A frame with
more points is refused.  So a point whose log is the same for every
proposal leaves the kernel, its log added as one constant: per frame,
the points outside the template's z range and those _FAR voxels or more
off, which read the no-info slot; per certified span, the band and out
points (below).  The max-pooled tables of `score_top_k` hold only
entries of the log table, so the sums of its bounds are exact too, and a
computed bound is never below a computed score.  `LogTable.log_floor` and
`PoseScorer.log_no_info` are rounded alike, so a proposal that scores
every point at the floor sums to exactly
`n_scored * log_floor + (n_points - n_scored) * log_no_info`.

Certified points.  `_certify` finds in float64, for a span of
proposals, the kernel points that every proposal of the span places
inside the template's box: about the span's middle heading a point at
range r moves at most r times half the heading span, plus half the ys'
span in y, and the kernel's float32 coordinates lie within a rounding
margin of the exact ones that grows with the point's range (`_margin`).
The band points among them lie, by the same slack, in a y band for every
proposal: the leading or trailing y slabs of the log table whose entries
all hold one log, the band log, as the template's voxels outside its row
range do (`log_table`).  They enter no kernel, add the band log and count as
scored.  The out points mirror the certified ones: by the same slack,
every proposal of the span places them outside the box (fx < 0 or past
its far x face, or the same in y), where the masked kernel reads the
no-info slot.  They enter no kernel, add `log_no_info` and are not
scored.  The fast points are the certified points outside the bands
whose exact x lies, by the same slack, inside one x voxel k: the kernel's
trunc(fx) is k for every proposal of the span, so their flat x part
k * ny * nz + iz is taken once and the kernel computes only their y.
The other certified points, the interior ones, are scored in a kernel
with no box test, clamp or count, each row counting all of them; the
rest, the edge points, in the masked kernel.  A row's partial sums, one
for each kind of pass, and the constants are added once every pass is
done, exact as every sum is.

A kernel call of distinct headings over fewer points than rows, as the
particle filter's edge pass is, runs on (points x rows) arrays, rows on
the inner axis, and sums over axis 0: numpy pays its per-row cost once
a point, not once a row.  Each element's float32 arithmetic is the same
either way, and every sum is exact, so no row changes by a bit.

A grid's shared-heading cells are certified together, over their span,
and take no fast pass: their x index is already taken once per heading.
The n distinct-heading proposals, the particle filter's, are sorted by
heading and cut into n // _CERTIFIED_ROWS equal chunks (one at least),
each certified over its own heading and y span, all chunks in one
vectorised call.  A point that is interior, band or out in every chunk
takes each chunk's own class: out in one chunk and interior in another,
it enters only the second chunk's kernel.  A point at the edge of any
chunk is scored in one masked pass over every distinct-heading proposal,
and in no other pass.  A call with no certified point takes that one
masked pass.

`PoseScorer.score_top_k` extends the contract to top-k pruning.  The
proposals it scores hold exactly what `score` returns for them, and
every proposal it skips scores strictly below the k-th best, so the k
best proposals, their order, ties broken by index, and whether any
proposal scores a point all match scoring every proposal.  Bounds come
at two levels, as in the multi-resolution search of Olson (ICRA 2009)
and Hess et al. (ICRA 2016): coarse blocks of _COARSE_HEADINGS heading
bins x _COARSE_Y * _Y_BIN voxels in y are bounded first, and fine
(heading bin x y-bin) blocks only inside the coarse blocks that are not
pruned.  A fine block's y-bin and its heading bin's rotation slack
either side span _Y_BIN voxels (`_y_bins`): y-bins 1.4 voxels wide for
uniform sampling's wide heading bins, 2.9 for a grid's bins of one
heading, so every fine block reads a pooled y window of 4 voxels, and
uniform sampling's narrower blocks leave fewer proposals to score.  The
k-th best is taken over the proposals scored so far, the others holding
-inf.  A proposal set with at least as many fine blocks as proposals is
scored whole, with no bound computed.  Uniform sampling and grid search
use it.  Particle-filter proposals, whose weights need every score, are
scored exhaustively.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import PreprocessedFrame, rotation_from_euler
from .template import Template

DEFAULT_P_FLOOR = 1e-4
# the most points a frame may hold: float64 sums of that many fixed-point
# logs are exact in any order (module docstring)
_MAX_POINTS = 2**29
# voxels from the sensor, on an axis, past which a point is scored as
# outside the box without entering the kernel (`PoseScorer.__init__`)
_FAR = 2**30

# the size of every kernel call of a `score` call, on any thread: _CHUNK
# rows times the kernel's points, which bounds the (rows x points)
# temporaries.  A call over fewer points holds as many lookups, in more
# rows.  The kernel's points are the frame's points inside the template's
# z range; `_block_bounds` takes _CHUNK blocks at a time
_CHUNK = 128
# the fewest rows a certified chunk of distinct headings holds: sorted by
# heading, n such rows make n // _CERTIFIED_ROWS chunks, each certified over
# its own span.  Narrower chunks certify more points fast or band, but take
# more small numpy calls, which hold the interpreter lock while the other
# scoring thread waits; on 2 CPUs, under the small buffer below, 192 rows
# made compare-apricot's frames 2.7% slower than 384 (README)
_CERTIFIED_ROWS = 384
# fewest distinct-heading rows a `score` call shares with the pool: the
# particle filter's 4000, one call a frame, its chunks and its edge pass
# from one queue.  The rounds of top-k pruning (a median 164 rows, two a
# frame) stay on the calling thread: sharing them gained nothing (README)
_MIN_THREADED_ROWS = 1024
# numpy's ufunc buffer, in elements, while a scorer scores (`_small_buffer`).
# numpy 2.4.6 runs a broadcast operation over float32 (rows x points)
# arrays, as `cos_t * qx` and `fy += ys[:, None]` are, in chunks of the
# buffer: 0.50-0.55 ns an element at the default 8192, 0.12-0.14 ns at 2048
# or less, as an operation of one shape costs.  The float32 -> float64 row
# sums, a buffered reduction, pay per chunk and slow down below about 256.
# No result depends on it: every operation is elementwise or an exact sum
_BUFSIZE = 512


def _small_buffer(fn):
    """`fn`, run under a ufunc buffer of _BUFSIZE elements; the caller's size
    is restored when it returns or raises.  Each thread has its own size."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        old = np.setbufsize(_BUFSIZE)
        try:
            return fn(*args, **kwargs)
        finally:
            np.setbufsize(old)
    return run


class PoseScorer:
    """Scores many (y, theta) proposals against one preprocessed frame.

    The roll/pitch/height leveling is applied to the cloud once; each
    proposal then costs one planar rotation plus a grid gather, and
    consecutive proposals that share a heading share its rotation.

    Raises ValueError for a frame of more than _MAX_POINTS points, past
    which float64 sums of its logs need not be exact.
    """

    def __init__(
        self,
        frame: PreprocessedFrame,
        template: Template,
        p_floor: float = DEFAULT_P_FLOOR,
    ):
        # every point, scored or not: the particle filter's floor counts them
        self.n_points = frame.cloud_V.points.shape[0]
        if self.n_points > _MAX_POINTS:
            raise ValueError(f"a frame holds at most {_MAX_POINTS} points, got {self.n_points}")
        self.template = template
        self.p_floor = float(p_floor)
        self.tables = log_table(template, self.p_floor)
        self.log_no_info = float(self.tables.table[0])

        R_level = rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation
        leveled = frame.cloud_V.points @ R_level.T

        cfg = template.config
        lo = cfg.template_range.min_corner
        hi = cfg.template_range.max_corner
        res = cfg.resolution
        self._dims = cfg.dims

        # the float32 hot path works in grid coordinates (voxels from the
        # grid origin), where template_range is [0, _fx_hi] x [0, _fy_hi]
        self._lo_x = np.float32(lo[0])
        self._lo_y = np.float32(lo[1])
        self._inv_res = np.float32(1.0 / res)
        self._fx_hi = np.float32((hi[0] - lo[0]) / res)
        self._fy_hi = np.float32((hi[1] - lo[1]) / res)

        # the points outside the z range read the no-info slot for every
        # proposal, and so do the far points, _FAR voxels or more off on an
        # axis (rotation keeps their range, and a proposal's y moves them
        # by far less): they leave the kernel, whose int32 indices they
        # would overflow, their logs added as one constant.  z index and
        # mask never depend on the proposal
        near = np.flatnonzero(np.all(np.abs(leveled) < _FAR * res, axis=1))
        iz, z_keep = cfg.voxel_index(leveled[near, 2:] + frame.height, axes=(2,))
        kept = near[z_keep]
        self._z_out_log = (self.n_points - kept.size) * self.log_no_info
        self._qx32 = leveled[kept, 0].astype(np.float32)
        self._qy32 = leveled[kept, 1].astype(np.float32)
        # +1: slot 0 of the log table holds the no-info log
        self._iz32 = iz[z_keep, 0].astype(np.int32) + np.int32(1)
        self._points = self._qx32, self._qy32, self._iz32, None  # every kernel point
        self._q64 = self._qx32.astype(np.float64), self._qy32.astype(np.float64)
        # the kernel's points' float64 ranges, and the largest: the rotation
        # slack of the bounds and of `_certify`
        self._ranges = np.hypot(self._qx32, self._qy32, dtype=np.float64)
        self._r_max = float(np.max(self._ranges, initial=0.0))
        self._margins = self._margin(0.0, self._ranges)  # each point's, at y 0

    @_small_buffer
    def score(self, ys: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log-likelihoods, points-scored) for parallel arrays of proposals."""
        ys = np.asarray(ys, dtype=np.float64)
        thetas = np.asarray(thetas, dtype=np.float64)
        n = ys.shape[0]
        if self.n_points == 0 or n == 0:
            return np.zeros(n), np.zeros(n, dtype=np.int64)
        loglik = np.zeros(n)
        n_scored = np.zeros(n, dtype=np.int64)
        cos_t = np.cos(thetas).astype(np.float32)[:, None]
        sin_t = np.sin(thetas).astype(np.float32)[:, None]
        starts, lengths, long = _heading_runs(thetas)
        in_run = np.repeat(long, lengths)
        shared = np.flatnonzero(in_run)
        distinct = np.flatnonzero(~in_run)
        threaded = _WORKERS > 1 and distinct.size >= _MIN_THREADED_ROWS
        # work items, popped one at a time (deque.popleft is thread-safe) by
        # the calling thread and the pool's, so a thread that starts late
        # takes fewer
        todo = deque()
        # the sums of each kind of pass, the first kind's in the call's own
        # arrays, the others' added below: the passes of one kind score
        # disjoint cells.  So are the constants of the points no kernel
        # reads, (cells, band points, out points) for each certified span
        sums = {}
        consts = []

        def add_pass(kind, cells, points, run_of=None, heads=None):
            """Score `points` for `cells` into the sums of `kind`, masked for
            the edge points, in items of about _CHUNK x (kernel points)
            lookups; a shared-heading item reads the heading rows of its
            runs."""
            masked = kind == "edge"
            if not sums:
                sums[kind] = loglik, n_scored
            elif kind not in sums:
                sums[kind] = np.zeros(n), np.zeros(n, dtype=np.int64)
            step = max(_CHUNK, _CHUNK * self._qx32.size // points[0].size)
            for lo in range(0, cells.size, step):
                chunk = cells[lo : lo + step]
                if heads is None:
                    heading, row = chunk, None
                else:
                    run = run_of[lo : lo + step]
                    heading, row = heads[run[0] : run[-1] + 1], run - run[0]
                todo.append((chunk, cos_t[heading], sin_t[heading], row, points, masked,
                             *sums[kind]))

        if shared.size:
            # a grid's shared-heading cells, certified together: an unmasked
            # pass over their certified points and a masked one over the
            # edge points; the band and out points take neither
            inside, band, out = self._interior(ys[shared], thetas[shared])
            consts.append((shared, np.count_nonzero(band), np.count_nonzero(out)))
            run_of = np.repeat(np.arange(np.count_nonzero(long)), lengths[long])
            for mask, kind in ((inside, "interior"), (~(inside | band | out), "edge")):
                if mask.any():
                    points = self._points if mask.all() else self._subset(mask)
                    add_pass(kind, shared, points, run_of, starts[long])
        if distinct.size:
            # the other cells in heading order, in equal chunks of
            # _CERTIFIED_ROWS or more rows (or one chunk), each certified over
            # its own heading and y span
            n_chunks = distinct.size // _CERTIFIED_ROWS
            if n_chunks > 1:
                order = distinct[np.argsort(thetas[distinct])]
                first = np.arange(n_chunks) * distinct.size // n_chunks
                chunks = np.split(order, first[1:])
                spans = [f.reduceat(v[order], first)[:, None]
                         for v in (thetas, ys) for f in (np.minimum, np.maximum)]
            else:
                # one chunk, as a round of top-k pruning is: no sort and
                # scalar spans, which save about 2% of such a call
                order, chunks = distinct, [distinct]
                th, y = thetas[distinct], ys[distinct]
                spans = float(th.min()), float(th.max()), float(y.min()), float(y.max())
            inside, band, fast, k, out = (a.reshape(len(chunks), -1)
                                          for a in self._certify(*spans))
            # the points at the edge of any chunk are scored in one masked
            # pass over every cell, and take no other pass; a point that is
            # inside, band or out in each chunk is taken chunk by chunk
            edge = ~(inside | band | out).all(axis=0)
            if len(chunks) > 1 and edge.any():
                inside[:, edge] = band[:, edge] = fast[:, edge] = out[:, edge] = False
            _, ny, nz = self._dims
            for cells, inside_c, band_c, fast_c, k_c, out_c in zip(chunks, inside, band, fast,
                                                                   k, out):
                consts.append((cells, np.count_nonzero(band_c), np.count_nonzero(out_c)))
                if fast_c.any():
                    # the flat x part k * ny * nz + iz, of the fast points
                    # only: k lies in [0, nx - 1] for them alone
                    x_part = k_c[fast_c].astype(np.int32)
                    x_part *= np.int32(ny * nz)
                    x_part += self._iz32[fast_c]
                    points = self._qx32[fast_c], self._qy32[fast_c], None, x_part
                    add_pass("fast", cells, points)
                    inside_c = inside_c & ~fast_c
                if inside_c.any():
                    add_pass("interior", cells, self._subset(inside_c))
            if edge.any():
                add_pass("edge", order, self._points if edge.all() else self._subset(edge))

        def work():
            while True:
                try:
                    cells, cos_c, sin_c, row, points, masked, ll, ns = todo.popleft()
                except IndexError:
                    return
                ll[cells], ns[cells] = self._score_block(
                    cos_c, sin_c, ys[cells], row, points, masked
                )

        helpers = min(_WORKERS, len(todo)) - 1 if threaded else 0
        futures = [_scoring_pool().submit(_small_buffer(work)) for _ in range(helpers)]
        try:
            work()
        finally:
            # a task no pool thread has started is cancelled, not waited
            # for: on a busy host a pool thread may wait milliseconds for a
            # CPU.  Every started one is waited for, so no thread writes to
            # this call's arrays once it returns, and its error is raised here
            started = [f for f in futures if not f.cancel()]
            for f in started:
                f.exception()  # waits for every one before any error is raised
            for f in started:
                f.result()
        for ll, ns in list(sums.values())[1:]:
            loglik += ll
            n_scored += ns
        for cells, n_band, n_out in consts:
            if n_band or n_out:
                loglik[cells] += n_band * self.tables.band_log + n_out * self.log_no_info
                n_scored[cells] += n_band
        if self._qx32.size < self.n_points:
            loglik += self._z_out_log
        return loglik, n_scored

    def _subset(self, mask):
        return self._qx32[mask], self._qy32[mask], self._iz32[mask], None

    def _interior(self, ys, thetas):
        """`_certify`'s masks (interior, band, out) for the one span of the
        proposals (ys, thetas)."""
        spans = float(thetas.min()), float(thetas.max()), float(ys.min()), float(ys.max())
        inside, band, _, _, out = self._certify(*spans)
        return inside, band, out

    def _certify(self, t_lo, t_hi, y_lo, y_hi):
        """Masks (interior, band, fast) of the kernel's points, their x
        voxels k at the low end of their slack, and the out mask, for the
        proposals of headings t_lo .. t_hi and ys y_lo .. y_hi: floats, or
        (K, 1) columns of K spans, for (K, points) arrays.

        The interior points are those that every proposal places strictly
        inside the box with fx < nx - 1 and fy < ny - 1, so that the kernel
        keeps them and trunc(fx) <= nx - 1, trunc(fy) <= ny - 1 without a
        clamp.  The band points are the points of the box whose fy lies
        below ny_lo or above ny_hi for every proposal: they read a band slab
        (`log_table`), and are not interior.  The fast points are the
        interior points whose trunc(fx) is k for every proposal.  The out
        points are those that every proposal places outside the box: fx
        below 0 or above its far face _fx_hi, or fy below 0 or above
        _fy_hi, the masked kernel's own tests mirrored.  They read the
        no-info slot and are not scored; no point is both out and interior
        or band.  The distinct-heading passes these masks feed run with
        rows on the inner axis when they hold fewer points than rows
        (`_score_block`).

        About the middle heading, a point at range r moves at most
        r * (half the heading span), in x and in y, plus half the ys' span
        in y; the kernel's float32 coordinates lie within `_margin` voxels
        of the exact ones, a margin that grows with r.  A point is
        certified when its exact coordinates at the middle heading and y
        lie more than that slack inside the box, or, for k, inside one x
        voxel, or, for out, more than that slack past one of its faces.
        Its rows' partial sums add up exactly (module docstring).
        """
        cfg = self.template.config
        res = cfg.resolution
        lo = cfg.template_range.min_corner
        nx, ny, _ = self._dims
        t_mid = 0.5 * (t_lo + t_hi)
        y_mid = 0.5 * (y_lo + y_hi)
        slack_x = self._ranges * (np.maximum(t_hi - t_mid, t_mid - t_lo) / res)
        slack_x += self._margins
        slack_x += self._margin(np.maximum(-y_lo, y_hi), None)
        slack_y = slack_x + np.maximum(y_hi - y_mid, y_mid - y_lo) / res
        c, s = np.cos(t_mid), np.sin(t_mid)
        qx, qy = self._q64
        fx = (c * qx - s * qy - lo[0]) / res
        fy = (s * qx + c * qy + (y_mid - lo[1])) / res
        fx_lo, fx_hi = fx - slack_x, fx + slack_x
        fy_lo, fy_hi = fy - slack_y, fy + slack_y
        inside = (fx_lo > 0) & (fx_hi < min(float(self._fx_hi), nx - 1))
        inside &= (fy_lo > 0) & (fy_hi < min(float(self._fy_hi), ny - 1))
        ny_lo, ny_hi = self.tables.band
        band = inside & ((fy_hi < ny_lo) | (fy_lo > ny_hi))
        inside ^= band
        # fx_lo and fx_hi in one x voxel k = floor(fx_lo)
        k = np.floor(fx_lo)
        fast = inside & (fx_hi - k < 1.0)
        out = (fx_hi < 0) | (fx_lo > float(self._fx_hi))
        out |= (fy_hi < 0) | (fy_lo > float(self._fy_hi))
        return inside, band, fast, k, out

    def _margin(self, y_abs, r):
        """The float32 rounding the kernel's coordinates of a point at range
        r can gain for proposals whose ys lie within y_abs of 0, in voxels:
        _SPAN_ULPS float32 roundings of the largest |value| that enters
        them, a part of r plus a part of y_abs (alone for r None).  Far above
        the float64 rounding of the bins' edges and centres and of
        `_certify`'s coordinates.  `_certify` takes each point's own range,
        its part once (`_margins`); the bound tables take the largest."""
        cfg = self.template.config
        lo = cfg.template_range.min_corner
        ulps = _SPAN_ULPS * float(np.finfo(np.float32).eps) / cfg.resolution
        if r is None:
            return ulps * y_abs
        big = max(self._dims[:2]) * cfg.resolution + abs(lo[0]) + abs(lo[1]) + r
        return ulps * big + ulps * y_abs

    def _score_block(self, cos_t, sin_t, ys, row, points, masked):
        """Score ys against (h, 1) heading rows: ys[i] against heading row
        row[i], or against heading row i when `row` is None, over `points`
        (`_points`' form: x, y, z index, and the flat x parts or None).

        Heading-only terms (rotated x and y, x index, x/z masks) are
        computed once per heading row and gathered for each y offset.
        Unmasked, every point is taken to lie inside the box for every
        row (`_certify`): no mask, clamp or count, and each row scores
        every point.  Points given with their flat x parts, the fast
        ones, take no fx; `row` is then None.  With `row` None and fewer
        points than rows, the arrays are (points x rows), rows on the
        inner axis (module docstring).
        """
        qx, qy, iz, ix = points
        nx, ny, nz = self._dims
        y32 = ys.astype(np.float32)[:, None]
        axis = 1
        if row is None and qx.size < ys.size:
            # rows on the inner axis: (points x rows) arrays
            cos_t, sin_t, y32, axis = cos_t.T, sin_t.T, y32.T, 0
            qx, qy, iz, ix = (None if a is None else a[:, None] for a in points)
        if ix is None:
            # work directly in grid coordinates (voxels from the grid origin)
            fx = cos_t * qx - sin_t * qy
            fx -= self._lo_x
            fx *= self._inv_res
            ix = fx.astype(np.int32)
            if masked:
                keep_x = (fx >= 0) & (fx <= self._fx_hi)
                # truncation equals floor on kept points; the rest are sent to
                # slot 0 below, so only the upper faces need a clamp
                np.minimum(ix, np.int32(nx - 1), out=ix)
            ix *= np.int32(ny * nz)
            ix += iz
        fy = sin_t * qx + cos_t * qy
        if row is not None:
            fy, ix = fy[row], ix[row]
            if masked:
                keep_x = keep_x[row]
        fy += y32
        fy -= self._lo_y
        fy *= self._inv_res

        lin = fy.astype(np.int32)
        if not masked:
            lin *= np.int32(nz)
            lin += ix
            return self.tables.table.take(lin).sum(axis=axis, dtype=np.float64), qx.size
        keep = (fy >= 0) & (fy <= self._fy_hi)
        keep &= keep_x
        np.minimum(lin, np.int32(ny - 1), out=lin)
        lin *= np.int32(nz)
        lin += ix
        lin *= keep  # points outside template_range read the no-info slot 0
        return (self.tables.table.take(lin).sum(axis=axis, dtype=np.float64),
                np.count_nonzero(keep, axis=axis))

    @_small_buffer
    def score_top_k(
        self, ys: np.ndarray, thetas: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The k best of the proposals (ys, thetas), exactly.

        Returns what `score` returns, in the proposals' order, except that
        proposals that cannot be among the k best (stable index order
        breaking ties) may hold -inf and 0 points scored.  The proposals
        are grouped into fine (heading-bin x y-bin) blocks
        (`_proposal_blocks`), and those into coarse blocks of
        `_coarse_groups` heading groups x the fine y-bins that _COARSE_Y *
        _Y_BIN voxels hold (`_y_bins`); a set with at least as many fine
        blocks as proposals is scored whole.

        Every coarse block that holds proposals is bounded first
        (`_block_bounds`).  The fine blocks of the best ones, holding
        _FIRST_SPLIT * _ROUND fine blocks, are bounded, and fine blocks are
        scored in rounds of _ROUND, highest bound first.  Once the k-th best
        score is known, a coarse block whose bound lies strictly below it is
        skipped and the fine blocks of the others are bounded too.  A fine
        block is skipped once its bound lies strictly below the k-th best
        score found so far.  The k-th best is taken over the scored
        proposals only: the others hold -inf, and every score is finite.
        When no scored proposal scores a point, every proposal is scored,
        so "no proposal scores a point" is decided exactly too.
        """
        ys = np.asarray(ys, dtype=np.float64)
        thetas = np.asarray(thetas, dtype=np.float64)
        n = ys.size
        k = min(k, n)
        if k < 1:
            return self.score(ys, thetas)
        res = self.template.config.resolution
        width = 2.0 * _ROT_SLACK * res / max(self._r_max, res)
        block_of, y_lo, middle, n_shared, rot_slack = _proposal_blocks(ys, thetas, width, res)
        n_y = y_lo.size
        if middle.size * n_y >= n:
            # a block's bound costs about as much as one proposal's score
            return self.score(ys, thetas)
        margin = self._margin(float(np.max(np.abs(ys))), self._r_max)
        y_bin, per_coarse = _y_bins(rot_slack)

        # coarse block c * n_cy + j is coarse y-bin j of heading group c
        group, centres = _coarse_groups(middle, n_shared, width)
        cy_lo = np.minimum.reduceat(y_lo, np.arange(0, n_y, per_coarse))
        n_cy = cy_lo.size
        # the fine blocks that hold proposals, and the coarse block of each
        fine = np.flatnonzero(np.bincount(block_of, minlength=middle.size * n_y))
        fine_coarse = group[fine // n_y] * n_cy + fine % n_y // per_coarse
        fine_in = np.bincount(fine_coarse, minlength=centres.size * n_cy)
        # the coarse blocks that hold proposals, highest bound first
        rest = np.flatnonzero(fine_in)
        slack, pooled = self._bound_table(
            margin, _COARSE_HEADINGS * _ROT_SLACK, per_coarse * y_bin
        )
        coarse = np.full(fine_in.size, -np.inf)
        coarse[rest] = self._block_bounds(centres, cy_lo, rest, slack, pooled)
        rest = rest[np.argsort(-coarse[rest], kind="stable")]

        slack, pooled = self._bound_table(margin, rot_slack, y_bin)
        bounds = np.full(middle.size * n_y, -np.inf)

        def split(coarse_blocks):
            """Bound the fine blocks of `coarse_blocks` that hold proposals,
            and return them."""
            mask = np.zeros(coarse.size, dtype=bool)
            mask[coarse_blocks] = True
            blocks = fine[mask[fine_coarse]]
            if blocks.size:
                bounds[blocks] = self._block_bounds(middle, y_lo, blocks, slack, pooled)
            return blocks

        loglik = np.full(n, -np.inf)
        n_scored = np.zeros(n, dtype=np.int64)
        found = np.empty(0)  # the log-likelihoods scored so far, all finite
        kth = -np.inf  # until k proposals are scored, when nothing can be pruned yet
        chosen = np.zeros(bounds.size, dtype=bool)
        first = np.searchsorted(np.cumsum(fine_in[rest]), _FIRST_SPLIT * _ROUND) + 1
        pending = split(rest[:first])
        rest = rest[first:]
        while pending.size or rest.size:
            if rest.size and (kth > -np.inf or not pending.size):
                # the other coarse blocks, once the k-th best is known
                rest = rest[coarse[rest] >= kth]
                pending = np.concatenate((pending, split(rest)))
                rest = rest[:0]
            pending = pending[np.argsort(-bounds[pending], kind="stable")]
            pending = pending[bounds[pending] >= kth]
            if pending.size:
                chosen[:] = False
                chosen[pending[:_ROUND]] = True
                # in the proposals' order, so a grid's runs of one heading stay runs
                cells = np.flatnonzero(chosen[block_of])
                loglik[cells], n_scored[cells] = self.score(ys[cells], thetas[cells])
                found = np.concatenate((found, loglik[cells]))
                if found.size >= k:
                    kth = np.partition(found, found.size - k)[found.size - k]
            pending = pending[_ROUND:]
        if not np.any(n_scored):
            return self.score(ys, thetas)
        return loglik, n_scored

    def _bound_table(self, margin, rot_slack, y_bin) -> tuple[float, np.ndarray]:
        """(slack, pooled table) for blocks whose headings lie within
        rot_slack voxels of their middle's, at the frame's largest point
        range, and whose ys span y_bin voxels; `margin` is the float32
        rounding a coordinate can gain, in voxels.

        A block's bound is read at its middle heading, where a point lies at
        most rot_slack voxels, plus the margin, in x and in y from where any
        of the block's headings puts it.  For one heading the kernel's
        float32 y coordinate is monotone in y.  So over a block a point reads
        x indices within slack = rot_slack + margin of its x at the middle
        heading, and y indices from slack below its y at the block's lowest y
        to y_bin + slack above it, or the no-info slot where it leaves the
        box; the pooled table holds the maximum over that window
        (`_pooled_table`).  A block of one heading has rot_slack 0: its
        coordinates are the kernel's, bit for bit, and its x window is 1.
        """
        if rot_slack:
            slack = rot_slack + margin
            x_window = math.floor(2.0 * slack) + 2
        else:
            slack, x_window = 0.0, 1
        y_window = math.floor(y_bin + 2.0 * slack + margin) + 2
        return slack, _pooled_table(self.tables, self._dims, x_window, y_window)

    def _block_bounds(self, middle, y_lo, blocks, slack, pooled) -> np.ndarray:
        """Upper bounds on `score` over (heading x y) blocks: for each block
        b of `blocks`, heading b // n and y-bin b % n of n = y_lo.size, the
        float64 sum of its points' pooled logs.

        The block holds headings around middle[b // n] and ys from
        y_lo[b % n] up, and reads `pooled` from `slack` voxels below each
        point's coordinates at that heading and y (`_bound_table`).  A
        point whose x window misses the box, or outside the z range, reads
        the pooled table's no-info tail.
        """
        nx, ny, nz = self._dims
        rows, cols = np.divmod(blocks, y_lo.size)
        heads, rows = np.unique(rows, return_inverse=True)
        slack32 = np.float32(slack)
        cos_m = np.cos(middle[heads]).astype(np.float32)[:, None]
        sin_m = np.sin(middle[heads]).astype(np.float32)[:, None]
        # the kernel's fx at each middle heading, in its op order
        fx = cos_m * self._qx32 - sin_m * self._qy32
        fx -= self._lo_x
        fx *= self._inv_res
        off = (fx < -slack32) | (fx > self._fx_hi + slack32)
        if slack:
            fx -= slack32
        # clamped before the cast: the first index the window reads
        np.clip(fx, 0, nx - 1, out=fx)
        ix = fx.astype(np.int32)
        ix *= np.int32(ny * nz)
        ix += self._iz32
        ix[off] = self.tables.table.size  # the first slot of the no-info tail
        fy0 = sin_m * self._qx32 + cos_m * self._qy32
        y_lo32 = y_lo.astype(np.float32)[:, None]
        bounds = np.empty(blocks.size)
        for lo in range(0, blocks.size, _CHUNK):
            row, col = rows[lo : lo + _CHUNK], cols[lo : lo + _CHUNK]
            # and its fy at each lowest y
            fy = fy0[row]
            fy += y_lo32[col]
            fy -= self._lo_y
            fy *= self._inv_res
            if slack:
                fy -= slack32
            np.clip(fy, 0, ny - 1, out=fy)
            lin = fy.astype(np.int32)
            lin *= np.int32(nz)
            lin += ix[row]
            bounds[lo : lo + _CHUNK] = pooled.take(lin).sum(axis=1, dtype=np.float64)
        if self._z_out_log:
            bounds += self._z_out_log
        return bounds


def _proposal_blocks(ys, thetas, heading_width: float, res: float):
    """Group proposals into (heading-bin x y-bin) blocks.

    A run of _MIN_RUN or more consecutive proposals with one heading, as
    each heading of a theta-major grid is, is a heading bin of its own,
    whose middle is that heading.  The other proposals fall into bins
    `heading_width` wide from their lowest heading, whose middle is the
    bin's centre; these wide bins follow the runs' bins.  The heading
    bins' rotation slack is _ROT_SLACK voxels if any bin is wide, else 0,
    and y-bins are `_y_bins`' width for it, in voxels of `res`, from the
    lowest y.  Block b * n + j is y-bin j of heading bin b, for n y-bins.
    Returns each proposal's block, the lowest y in each y-bin, each
    heading bin's middle, the number of runs' bins and the rotation slack.
    """
    starts, run_len, shared = _heading_runs(thetas)
    hbin = np.repeat(np.cumsum(shared) - 1, run_len)
    middle = thetas[starts[shared]]
    n_shared = middle.size
    rot_slack = 0.0 if shared.all() else _ROT_SLACK
    if rot_slack:
        in_wide = ~np.repeat(shared, run_len)
        lowest = thetas[in_wide].min()
        wbin = np.floor((thetas[in_wide] - lowest) / heading_width).astype(np.int64)
        hbin[in_wide] = n_shared + wbin
        centres = lowest + (np.arange(wbin.max() + 1) + 0.5) * heading_width
        middle = np.concatenate((middle, centres))
    ybin = np.floor((ys - ys.min()) / (_y_bins(rot_slack)[0] * res)).astype(np.int64)
    y_lo = np.full(ybin.max() + 1, np.inf)
    np.minimum.at(y_lo, ybin, ys)
    return hbin * y_lo.size + ybin, y_lo, middle, n_shared, rot_slack


def _y_bins(rot_slack: float) -> tuple[float, int]:
    """(width, count): the width in voxels of the y-bins of fine blocks
    whose heading bins have rot_slack voxels of rotation slack, _Y_BIN -
    2 * rot_slack, so that every fine block reads one pooled y window
    (`_bound_table`); and the fine y-bins in a coarse y-bin, as many as
    _COARSE_Y * _Y_BIN voxels hold."""
    width = _Y_BIN - 2.0 * rot_slack
    return width, int(_COARSE_Y * _Y_BIN // width)


def _coarse_groups(middle, n_shared: int, heading_width: float):
    """Group `_proposal_blocks`' heading bins into coarse heading groups.

    A group's headings lie within half its width, _COARSE_HEADINGS *
    heading_width, of its middle.  The runs' bins, the first n_shared,
    group by their heading, in groups that wide from the lowest; the wide
    bins, heading_width wide from the lowest wide heading, group by
    _COARSE_HEADINGS consecutive bins.  Returns each heading bin's group
    and each group's middle.
    """
    width = _COARSE_HEADINGS * heading_width
    runs = middle[:n_shared]
    lowest = runs.min() if n_shared else 0.0
    used, run_group = np.unique(np.floor((runs - lowest) / width), return_inverse=True)
    wide_group = used.size + np.arange(middle.size - n_shared) // _COARSE_HEADINGS
    # each wide group's lowest heading: its first bin's, half a bin below its centre
    wide_lo = middle[n_shared::_COARSE_HEADINGS] - 0.5 * heading_width
    centres = np.concatenate((lowest + (used + 0.5) * width, wide_lo + 0.5 * width))
    return np.concatenate((run_group.reshape(-1), wide_group)), centres


# the rotation slack of a heading bin, in voxels at the frame's largest
# point range: wider bins cost fewer bounds but read a wider pooled window
_ROT_SLACK = 0.75
# the y extent of a fine block, in voxels: its y-bin plus twice its
# rotation slack (`_y_bins`), so every fine block reads a 4-voxel pooled y
# window.  It and the wide bins' y-bin, 1.4, are kept off whole numbers,
# so the pooled windows do not hang on rounding
_Y_BIN = 2.9
# float32 roundings a coordinate can gain, in units of eps * |value|
_SPAN_ULPS = 64
# fine blocks scored per round before the k-th best is updated
_ROUND = 32
# a coarse block: heading groups _COARSE_HEADINGS heading bins wide, so
# _COARSE_HEADINGS * _ROT_SLACK voxels of rotation slack, x the fine y-bins
# that _COARSE_Y * _Y_BIN voxels hold (`_y_bins`)
_COARSE_HEADINGS = 2
_COARSE_Y = 2
# the best coarse blocks, holding this many rounds' fine blocks, are split
# before any score is known; the others once the first round has scored
_FIRST_SPLIT = 3


# runs of at least this many equal headings share their heading's row;
# shorter runs (duplicated PF particles) stay in the chunks
_MIN_RUN = 8


# scoring threads, the calling thread included: the CPUs this process may
# run on (CPU affinity is not available on every platform)
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1
_pool = None  # the ThreadPoolExecutor, once started
_pool_lock = threading.Lock()


def _scoring_pool():
    """The _WORKERS - 1 threads that score beside the caller, started on
    first use."""
    # imported here: concurrent.futures imports logging, 0.6 MB that a
    # process scoring on one thread need not hold
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="rowloc-score")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, only their executor
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _heading_runs(thetas: np.ndarray):
    """Runs of consecutive equal headings: (starts, lengths, long), long
    marking the runs of _MIN_RUN or more."""
    new_run = np.ones(thetas.shape[0], dtype=bool)
    np.not_equal(thetas[1:], thetas[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(starts, append=thetas.shape[0])
    return starts, lengths, lengths >= _MIN_RUN


@dataclass(frozen=True, eq=False)
class LogTable:
    """One (template, p_floor)'s scoring tables (`log_table`).  `table`: the
    flat float32 no-info log, then log(max(grid, p_floor)); `log_floor`:
    log(p_floor); each a multiple of 2**-q (module docstring).  The (x, z)
    slabs below y index band[0] or from band[1] up hold only `band_log`;
    (ny, 0) when all do.  `pooled`: `_pooled_table`'s.  No field holds the template."""

    table: np.ndarray
    log_floor: float
    band: tuple[int, int]
    band_log: float
    pooled: dict


_tables_by_template = weakref.WeakKeyDictionary()  # {p_floor: LogTable} per template


def log_table(template: Template, p_floor: float) -> LogTable:
    """The tables of (template, p_floor), built once while the template lives,
    on a scorer's calling thread.  Raises ValueError unless 0 < p_floor <= 1."""
    if not 0.0 < p_floor <= 1.0:
        raise ValueError(f"p_floor must be in (0, 1], got {p_floor}")
    by_floor = _tables_by_template.setdefault(template, {})
    tables = by_floor.get(p_floor)
    if tables is None:
        # the no-info frequency, the grid, then p_floor, logged in one pass
        logs = np.empty(template.grid.size + 2)
        logs[0] = template.no_info_frequency
        logs[1:-1] = template.grid.reshape(-1)
        logs[-1] = p_floor
        np.maximum(logs, p_floor, out=logs)
        np.log(logs, out=logs)
        q = 24 - math.frexp(max(-float(logs.min()), float(logs.max())))[1]
        # scaling by a power of two is exact
        logs *= 2.0**q
        np.rint(logs, out=logs)
        logs *= 2.0**-q
        table = logs[:-1].astype(np.float32)
        table.flags.writeable = False
        # bands: the leading or trailing y slabs of one log, the same at both
        # ends (float32 no-info may not log to slot 0); reduced over x first
        slabs = table[1:].reshape(template.config.dims)
        least, largest = slabs.min(axis=0).min(axis=1), slabs.max(axis=0).max(axis=1)
        band_log = least[0] if least[0] == largest[0] else least[-1]
        info = np.flatnonzero((least != band_log) | (largest != band_log))
        band = (int(info[0]), int(info[-1]) + 1) if info.size else (slabs.shape[1], 0)
        tables = by_floor[p_floor] = LogTable(table, float(logs[-1]), band, float(band_log), {})
    return tables


def _pooled_table(tables: LogTable, dims, x_window: int, y_window: int) -> np.ndarray:
    """The log table of `tables` (grid `dims`) max-pooled over x and y windows.

    Voxel (ix, iy, iz) holds the max of the logs at ix .. ix + x_window - 1
    and iy .. iy + y_window - 1 (fewer at the grid's upper faces).  A
    window that starts at iy = 0 or reaches the upper y face
    (iy >= ny - y_window) also takes the no-info log: a block whose first
    y index lies there may place the point outside the box, below y = 0 or
    past the upper face, for some of its proposals.  So does a window of
    more than one x voxel at the x faces.  Slot 0 keeps the no-info log,
    and so do the (ny - 1) * nz + 1 slots after the grid, a tail that a
    point's x index sent to its first slot reads at any y index.
    """
    key = (x_window, y_window)
    cached = tables.pooled.get(key)
    if cached is None:
        nx, ny, nz = dims
        logs = tables.table[1:].reshape(dims)
        no_info = tables.table[0]
        pooled = np.concatenate((tables.table, np.full((ny - 1) * nz + 1, no_info)))
        view = pooled[1 : tables.table.size].reshape(logs.shape)
        for s in range(1, min(y_window, ny)):
            np.maximum(view[:, :-s], logs[:, s:], out=view[:, :-s])
        if x_window > 1:
            y_pooled = view.copy()
            for s in range(1, min(x_window, nx)):
                np.maximum(view[:-s], y_pooled[s:], out=view[:-s])
        faces = [view[:, :1], view[:, max(ny - y_window, 0) :]]
        if x_window > 1:
            faces += [view[:1], view[max(nx - x_window, 0) :]]
        for face in faces:
            np.maximum(face, no_info, out=face)
        pooled.flags.writeable = False
        cached = tables.pooled[key] = pooled
    return cached
