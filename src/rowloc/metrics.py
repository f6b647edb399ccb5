"""Error metrics shared by every experiment runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ErrorMetrics:
    mae: float
    sd: float  # population standard deviation of |error|
    p95: float  # linear-interpolated 95th percentile of |error|
    n: int

    def as_row(self) -> str:
        return f"{self.mae!r},{self.sd!r},{self.p95!r},{self.n}"


def compute_metrics(errors) -> ErrorMetrics:
    """MAE / SD / 95th percentile of the absolute errors."""
    e = np.abs(np.asarray(errors, dtype=np.float64))
    if e.size == 0:
        raise ValueError("cannot compute metrics of an empty error list")
    return ErrorMetrics(
        mae=float(e.mean()),
        sd=float(e.std()),
        p95=float(np.percentile(e, 95.0)),
        n=int(e.size),
    )


def accumulated_error_distribution(errors, thresholds) -> np.ndarray:
    """The share of |error| <= t for each threshold t; nondecreasing in t."""
    e = np.abs(np.asarray(errors, dtype=np.float64))
    if e.size == 0:
        raise ValueError("cannot compute a distribution of an empty error list")
    t = np.asarray(thresholds, dtype=np.float64)
    return (e[None, :] <= t[:, None]).mean(axis=1)
