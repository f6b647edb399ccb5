"""Exact first-best selection over blocks of RANSAC hypotheses.

The hypothesis loops in geometry.py and baselines.py score their
hypotheses with array operations, one block at a time, and treat the
results as a screen.  Vectorized and per-hypothesis values of a point's
distance agree to a few ulps of the coordinate scale, so only a value
within `margin` of a decision threshold can be decided differently; those
hypotheses are re-decided by the per-hypothesis (scalar) code.  The
hypothesis chosen is therefore the one the scalar loop chooses, bit for
bit, including its first-wins tie rule.
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


def unknown(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds that decide nothing: first_max then calls exact() on each."""
    return np.full(m, -1, dtype=np.int64), np.full(m, np.iinfo(np.int64).max)


def first_max(n_hyp: int, screen, exact) -> tuple[int, int]:
    """(index, count) of the first hypothesis with the largest count.

    screen(a, b) bounds the counts of hypotheses a..b-1 as int arrays
    (lo, hi), with -1 for a rejected hypothesis; lo == hi means exact.
    exact(k) is hypothesis k's count by the scalar code (-1: rejected).  It
    runs only where the bounds differ and the hypothesis could still beat
    the best so far.  A loop that keeps a count only if it is strictly
    greater picks the same index.  Returns (-1, -1) if every one is rejected.
    """
    best_k, best = -1, -1
    for a in range(0, n_hyp, BLOCK):
        lo, hi = screen(a, min(a + BLOCK, n_hyp))
        # hi <= best: it cannot beat an earlier hypothesis, whatever its count
        for u in np.flatnonzero((lo != hi) & (hi > best)):
            lo[u] = exact(a + int(u))
        k = int(np.argmax(lo))
        if lo[k] > best:
            best_k, best = a + k, int(lo[k])
    return best_k, best
