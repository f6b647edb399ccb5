"""Per-layer metrics from the spans of one traced run.

Timings are medians over every call in the traced frames.  Counts and
ratios are taken over the first `n_count` traced frames only, so they
repeat exactly from run to run.  A span the workload bypasses by design
(listed in its `bypassed_spans`) reads 0; a span the workload should
reach but that never fired is left out and returned as missing, so a
layer that is inlined away shows as missing, never as free.
"""

from __future__ import annotations

import statistics

from tracing import self_ms, side_missing
from workloads import BASELINE_SPANS


def layer_metrics(tracer, bypassed, n_count: int, file_bytes: int):
    spans = tracer.spans
    own = self_ms(spans)
    in_frames = [i for i, s in enumerate(spans) if s.frame is not None]
    in_count = [i for i in in_frames if spans[i].frame < n_count]
    in_setup = [i for i, s in enumerate(spans) if s.frame is None]
    frames = [i for i in in_frames if spans[i].name == "frame"]
    frame_ms = sum(spans[i].ms for i in frames)

    metrics, missing = {}, set()

    def calls(name, where=in_frames):
        return [i for i in where if spans[i].name == name]

    def put(metric, span_names, compute, where=in_frames):
        """metric = compute(calls) when any of span_names fired, else 0/missing."""
        idx = [i for n in span_names for i in calls(n, where)]
        if idx:
            metrics[metric] = compute(idx)
        elif all(n in bypassed for n in span_names):
            metrics[metric] = 0.0
        else:
            missing.update(n for n in span_names if n not in bypassed)

    def p50_ms(idx):
        return statistics.median(spans[i].ms for i in idx)

    def p50_self(idx):
        return statistics.median(own[i] for i in idx)

    def p50_stat(key):
        return lambda idx: statistics.median(spans[i].stats[key] for i in idx)

    def frame_share(idx):
        return sum(spans[i].ms for i in idx) / frame_ms

    def stat_sum(idx, key):
        return sum(spans[i].stats[key] for i in idx)

    put("geometry.voxel_downsample.ms_p50", ["geometry.voxel_downsample"], p50_ms)
    put("geometry.voxel_downsample.points_out", ["geometry.voxel_downsample"],
        p50_stat("points_out"), in_count)
    put("geometry.ransac_ground_plane.ms_p50", ["geometry.ransac_ground_plane"], p50_ms)
    put("geometry.ransac_ground_plane.inlier_frac", ["geometry.ransac_ground_plane"],
        p50_stat("inlier_frac"), in_count)
    put("geometry.preprocess.calls_per_frame", ["geometry.preprocess"],
        lambda idx: len(idx) / n_count, in_count)
    put("geometry.preprocess.frame_share", ["geometry.preprocess"], frame_share)

    put("measurement.PoseScorer.init_ms_p50", ["measurement.PoseScorer.init"], p50_ms)
    put("measurement.score.ms_p50", ["measurement.score"], p50_ms)
    put("measurement.score.lookups_per_frame", ["measurement.score"],
        lambda idx: stat_sum(idx, "lookups") / n_count, in_count)
    put("measurement.score.ns_per_lookup", ["measurement.score"],
        lambda idx: sum(spans[i].ms for i in idx) * 1e6 / stat_sum(idx, "lookups"))
    put("measurement.score.kept_frac", ["measurement.score"],
        lambda idx: stat_sum(idx, "kept") / stat_sum(idx, "lookups"), in_count)
    put("measurement.score.frame_share", ["measurement.score"], frame_share)

    put("mcl.sample.ms_p50", ["mcl.sample"], p50_ms)
    put("mcl.covariance_top_fraction.ms_p50", ["mcl.covariance_top_fraction"], p50_ms)
    put("mcl.resample.ms_p50", ["mcl.resample"], p50_ms)
    put("mcl.pf.ess_frac", ["mcl.resample"], p50_stat("ess_frac"), in_count)
    put("mcl.localize.self_ms_p50", ["mcl.localize"], p50_self)

    put("template.build_template.self_ms", ["template.build_template"], p50_self, in_setup)
    put("template.save_template.ms", ["template.save_template"], p50_ms, in_setup)
    put("template.load_template.ms", ["template.load_template"], p50_ms, in_setup)
    metrics["template.file_bytes"] = file_bytes

    for name in BASELINE_SPANS:
        put(name + ".self_ms_p50", [name], p50_self)
    put("baselines.side_missing_frac", BASELINE_SPANS,
        lambda idx: sum(side_missing(spans[i]) for i in idx) / len(idx), in_count)

    metrics["trace.frame_ms_p50"] = statistics.median(spans[i].ms for i in frames)
    # frame time spent outside every layer span: the loop body's own work
    metrics["trace.unattributed_frac"] = sum(own[i] for i in frames) / frame_ms
    return metrics, missing
