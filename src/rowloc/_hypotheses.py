"""Exact first-best selection over blocks of RANSAC hypotheses.

The ground-plane and row-line searches (geometry.py, baselines.py) ask
one question: which is the first hypothesis with the most points within a
tolerance?  `first_max_inliers` answers it for both.  It scores the
hypotheses with array operations, one block at a time, and treats the
counts as a screen.  Vectorized and per-hypothesis values of a point's
distance agree to a few ulps of the coordinate scale, so only a value
within `margin` of a decision threshold can be decided differently; those
hypotheses are re-decided by the per-hypothesis (scalar) code.  The
hypothesis chosen is therefore the one the scalar loop chooses, bit for
bit, including its first-wins tie rule.  baseline2's minimum-score pair
search uses `count_bounds`, `margin` and `homogeneous` on its own.
"""

from __future__ import annotations

import numpy as np

# hypotheses scored per array pass; a pass holds a few (BLOCK, N) arrays
BLOCK = 64
# values closer than this to a decision threshold are re-decided exactly
SCREEN_EPS = 1e-9


def margin(points: np.ndarray) -> float:
    """Screen margin for distances to `points`: SCREEN_EPS, scaled with the
    largest coordinate once that exceeds 1 m (rounding error grows with it)."""
    return SCREEN_EPS * max(1.0, float(np.abs(points).max(initial=0.0)))


def homogeneous(points: np.ndarray) -> np.ndarray:
    """points with a column of ones appended: one matmul with rows
    (normal, -offset) gives every signed distance of a block."""
    return np.column_stack([points, np.ones(points.shape[0])])


def _row_counts(mask: np.ndarray) -> np.ndarray:
    # twice as fast as np.count_nonzero(mask, axis=1)
    return mask.view(np.uint8).sum(axis=1, dtype=np.int32)


def count_bounds(dist: np.ndarray, tol: float, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row lower and upper bounds on the count of |dist| <= tol, for
    distances accurate to within `margin`.  Equal bounds are the exact count.

    Overwrites dist with |dist|: a (BLOCK, N) temporary fewer per block.
    """
    a = np.abs(dist, out=dist)
    return _row_counts(a < tol - margin), _row_counts(a <= tol + margin)


def first_max_inliers(points: np.ndarray, planes: np.ndarray, unsure: np.ndarray,
                      tol: float, exact) -> tuple[int, int]:
    """(index, count) of the first hypothesis with the most points within
    `tol`, as a loop over exact(k) that keeps a count only if it is
    strictly greater picks it; (-1, -1) if every one is rejected.

    Row k of `planes` is hypothesis k's unit normal and -offset, so its
    signed distances are planes[k] @ (p, 1).  unsure[k] marks a hypothesis
    the caller's screen cannot admit for sure (near a degeneracy or tilt
    threshold).  exact(k) is hypothesis k's count by the scalar code (-1:
    rejected).  It runs only where the bounds differ, or k is unsure, and
    the hypothesis could still beat the best so far.
    """
    points_h = homogeneous(points)
    m = margin(points)
    best_k, best = -1, -1
    for a in range(0, planes.shape[0], BLOCK):
        lo, hi = count_bounds(planes[a:a + BLOCK] @ points_h.T, tol, m)
        lo[unsure[a:a + BLOCK]] = -1
        # hi <= best: it cannot beat an earlier hypothesis, whatever its count
        for u in np.flatnonzero((lo != hi) & (hi > best)):
            lo[u] = exact(a + int(u))
        k = int(np.argmax(lo))
        if lo[k] > best:
            best_k, best = a + k, int(lo[k])
    return best_k, best
