"""Spans recorded from outside rowloc, for the benchmark's traced run.

`Tracer.install` replaces public callables at the module (or class)
attributes where rowloc's callers look them up, e.g. `rowloc.mcl.preprocess`
rather than `rowloc.geometry.preprocess`, and `uninstall` puts the originals
back.  Each span keeps its name, start, end, parent and frame id.  Per-call
statistics (points out, inliers, lookups, ESS) are computed by `flush`,
which the benchmark calls between frames, so they cost no traced time.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from rowloc import baselines, geometry, mcl, template
from rowloc.baselines import SideMissingError
from rowloc.measurement import PoseScorer


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    frame: int | None  # loop frame id; None during set-up
    start: float = 0.0
    end: float = 0.0
    error: type | None = None
    stats: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _points_out(span, args, kwargs, result):
    return {"points_out": len(result)}


def _inlier_frac(span, args, kwargs, result):
    bound = inspect.signature(geometry.ransac_ground_plane).bind(*args, **kwargs)
    bound.apply_defaults()
    pts = bound.arguments["cloud"].points
    plane = result[0]
    inliers = np.count_nonzero(np.abs(plane.distance(pts)) <= bound.arguments["inlier_tol"])
    return {"inlier_frac": inliers / pts.shape[0]}


def _score_counts(span, args, kwargs, result):
    scorer, ys = args[0], args[1]
    _, n_scored = result
    return {"lookups": len(ys) * scorer.n_points, "kept": int(n_scored.sum())}


def _ess_frac(span, args, kwargs, result):
    w = args[0].weights
    return {"ess_frac": float(w.sum() ** 2 / np.dot(w, w) / w.size)}


# (owner, attribute, span name, per-call statistics)
TRACE_POINTS = (
    (geometry, "voxel_downsample", "geometry.voxel_downsample", _points_out),
    (geometry, "ransac_ground_plane", "geometry.ransac_ground_plane", _inlier_frac),
    (mcl, "preprocess", "geometry.preprocess", None),
    (baselines, "preprocess", "geometry.preprocess", None),
    (template, "preprocess", "geometry.preprocess", None),
    (mcl, "PoseScorer", "measurement.PoseScorer.init", None),
    (PoseScorer, "score", "measurement.score", _score_counts),
    (mcl, "sample_uniform", "mcl.sample", None),
    (mcl, "sample_motion_model", "mcl.sample", None),
    (mcl, "covariance_top_fraction", "mcl.covariance_top_fraction", None),
    (mcl, "resample", "mcl.resample", _ess_frac),
    (mcl, "localize_uniform", "mcl.localize", None),
    (mcl, "localize_grid", "mcl.localize", None),
    (mcl, "localize_pf", "mcl.localize", None),
    (template, "build_template", "template.build_template", None),
    (template, "save_template", "template.save_template", None),
    (template, "load_template", "template.load_template", None),
    (baselines, "baseline1", "baselines.baseline1", None),
    (baselines, "baseline2", "baselines.baseline2", None),
    (baselines, "baseline2_refine_offset", "baselines.baseline2_refine_offset", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.frame: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pending: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, stats in TRACE_POINTS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, stats))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.frame))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, stats):
        # updated=(): classes (PoseScorer) are wrapped too; copy no __dict__
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = self._open(name)
            span = self.spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if stats is not None:
                self._pending.append((stats, span, args, kwargs, result))
            return result

        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span the benchmark opens itself (e.g. a frame)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def flush(self) -> None:
        """Compute the per-call statistics of the spans closed so far."""
        for stats, span, args, kwargs, result in self._pending:
            span.stats.update(stats(span, args, kwargs, result))
        self._pending.clear()


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [(s.end - s.start - c) * 1e3 for s, c in zip(spans, child)]


def side_missing(span: Span) -> bool:
    return span.error is not None and issubclass(span.error, SideMissingError)
