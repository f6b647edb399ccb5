#!/usr/bin/env python3
"""Seeded end-to-end benchmark of rowloc, with an optional traced run.

    python3 perfbench/run.py --workload uniform-track --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: rowloc is imported from `src/`.
One workload runs per process, on one thread, as a closed loop with a
single caller (frame k+1 is sent when frame k returns).  Inputs are
generated from the seed before any timing.  With `--trace 0` the last
line of standard output is a JSON record of the end-to-end metrics, with
`--trace 1` of the per-layer metrics; metric names and units are the ones
`BENCHMARK.json` lists.  See `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# pin BLAS / OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# set-up (build + save + load) repetitions; setup_s is their median
SETUP_REPS = 3
# leading frames whose estimates must equal harness.evaluate_frames
CHECK_FRAMES = 5
# leading traced frames over which counts and ratios are taken, so that
# they repeat exactly whatever the machine's speed
COUNT_FRAMES = 10


class Calibration:
    """A fixed numpy + Python kernel that measures the machine's current speed.

    On a shared VM the host's speed drifts by up to 1.5x over tens of
    seconds, so raw wall times of runs a minute apart differ by more than
    a useful regression bound.  Timings are therefore reported rescaled: a
    duration d measured while the kernel takes c seconds reads
    d * (REFERENCE_S / c) ** ELASTICITY, the time it would take when the
    kernel takes REFERENCE_S.  c is the median of the HALF_WINDOW kernel
    runs just before the timed span and the HALF_WINDOW just after it.

    The kernel mixes the kinds of work a frame does (a gather from a
    template-sized float32 table, elementwise work, many small numpy calls
    as in the RANSAC loops) and runs no rowloc code, so a change to rowloc
    cannot move it.  Frame times move less than the kernel's when the
    host's speed changes: ELASTICITY is the measured ratio of the two log
    changes, and rescaling fully (exponent 1) over-corrects.
    """

    REFERENCE_S = 3e-3
    HALF_WINDOW = 3
    ELASTICITY = 0.6

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random(800_000, dtype=np.float32)
        self._idx = rng.integers(0, self._table.size, 40_000).astype(np.int32)
        self._pts = rng.random((600, 3))

    def kernel(self) -> float:
        """Run the kernel once; its wall time in seconds."""
        t0 = time.perf_counter()
        x = self._table[self._idx]
        x *= np.float32(1.5)
        float(x.sum())
        normal = np.array([0.0, 0.0, 1.0])
        for i in range(60):
            np.count_nonzero(np.abs(self._pts @ normal - 0.5) <= 0.05)
            normal = np.cross(self._pts[i], self._pts[i + 1])
        return time.perf_counter() - t0

    def factor(self, kernels) -> float:
        """What a duration is multiplied by, given the kernel times around it."""
        return (self.REFERENCE_S / statistics.median(kernels)) ** self.ELASTICITY

    def rescale(self, durations, kernels) -> list:
        """Rescale back-to-back spans; span k ran between kernels[k] and kernels[k + 1]."""
        h = self.HALF_WINDOW
        return [d * self.factor(kernels[max(0, k + 1 - h): k + 1 + h])
                for k, d in enumerate(durations)]


@dataclass
class Loop:
    """What one pass of the closed loop produced."""

    results: list = field(default_factory=list)  # per frame: list[FrameResult]
    failed: list = field(default_factory=list)  # per frame: estimator calls that raised
    frame_ms: list = field(default_factory=list)  # timed frames only, rescaled
    raw_ms: list = field(default_factory=list)  # the same, as measured
    elapsed: float = 0.0  # wall time of the timed frames

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.results) + sum(self.failed)

    @property
    def frames_per_s(self) -> float:
        return len(self.frame_ms) / sum(self.frame_ms) * 1e3


def run_loop(workload, seconds, min_frames, max_frames, calib, tracer=None) -> Loop:
    """Closed loop for `seconds`, then untimed frames up to `min_frames`."""
    loop = Loop()
    kernels = [calib.kernel()]  # one before the first timed frame, one after each
    start = time.perf_counter()
    k = 0
    while k < max_frames:
        timed = time.perf_counter() - start < seconds
        if not timed and k >= min_frames:
            break
        if tracer is None:
            t0 = time.perf_counter()
            results, failed = workload.step(k)
            ms = (time.perf_counter() - t0) * 1e3
        else:
            tracer.frame = k
            frame_span = len(tracer.spans)
            results, failed = tracer.run("frame", workload.step, k)
            ms = tracer.spans[frame_span].ms
            tracer.flush()
        loop.results.append(results)
        loop.failed.append(failed)
        if timed:
            loop.raw_ms.append(ms)
            kernels.append(calib.kernel())
            loop.elapsed = time.perf_counter() - start
        k += 1
    loop.frame_ms = calib.rescale(loop.raw_ms, kernels)
    return loop


def _result_key(r):
    return tuple(repr(v) for v in (r.frame, r.y_est, r.theta_est, r.std_y, r.std_theta,
                                   r.loglik, r.flags, r.method))


def _same_results(a, b) -> bool:
    return [[_result_key(r) for r in f] for f in a] == [[_result_key(r) for r in f] for f in b]


def setup(inputs, tmp_dir: Path, calib):
    """The build-template -> localize --template path, SETUP_REPS times.

    Returns (loaded template, rescaled and raw set-up seconds per rep,
    template file bytes, problems found).
    """
    from rowloc import template as tpl_mod

    cfg = inputs.cfg
    path = tmp_dir / "template.rstp"
    times, raw, grids, problems = [], [], [], []
    for _ in range(SETUP_REPS):
        before = [calib.kernel() for _ in range(calib.HALF_WINDOW)]
        t0 = time.perf_counter()
        built = tpl_mod.build_template(inputs.teach_clouds, inputs.teach_truths,
                                       cfg.template_cfg, cfg.mcl_cfg.pre_cfg)
        tpl_mod.save_template(built, path)
        loaded = tpl_mod.load_template(path)
        raw.append(time.perf_counter() - t0)
        after = [calib.kernel() for _ in range(calib.HALF_WINDOW)]
        times.append(raw[-1] * calib.factor(before + after))
        if not (np.array_equal(loaded.grid, built.grid)
                and loaded.no_info_frequency == built.no_info_frequency
                and loaded.n_frames == built.n_frames):
            problems.append("loaded template differs from the built one")
        grids.append(loaded.grid)
    if any(not np.array_equal(g, grids[0]) for g in grids[1:]):
        problems.append("template build is not deterministic")
    return loaded, times, raw, path.stat().st_size, problems


def check_results(workload, loop: Loop, reference, n_acc: int) -> list[str]:
    """Output check: prefix equals evaluate_frames, finite, within AC bounds."""
    problems = []
    if not _same_results(loop.results[: len(reference)], reference):
        problems.append(f"first {len(reference)} frames differ from harness.evaluate_frames")
    for frame in loop.results:
        for r in frame:
            values = (r.y_est, r.theta_est)
            if r.method.startswith("template-"):
                values += (r.std_y, r.std_theta, r.loglik)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite {r.method} estimate on frame {r.frame}")
    problems += workload.bound_violations([r for f in loop.results[:n_acc] for r in f])
    return problems


def end_to_end_metrics(loop: Loop, setup_times) -> dict:
    return {
        "frame_ms_p50": statistics.median(loop.frame_ms),
        "frame_ms_p90": float(np.percentile(loop.frame_ms, 90)),
        "frames_per_s": loop.frames_per_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def estimate_metrics(loop: Loop, n_acc: int) -> dict:
    """Errors and flag/failure shares of the estimator calls on the accuracy frames.

    Pooled over the workload's estimators.  They repeat exactly for a seed,
    but are per-layer rather than end-to-end: the shares are 0 for many
    seeds, and a few frames with gross errors make the mean errors spread
    across seeds beyond any end-to-end bound (see README.md).
    """
    acc = [r for f in loop.results[:n_acc] for r in f]
    calls = len(acc) + sum(loop.failed[:n_acc])
    return {
        "estimate.y_mae_m": statistics.fmean(abs(r.y_est - r.y_true) for r in acc),
        "estimate.theta_mae_rad": statistics.fmean(abs(r.theta_est - r.theta_true) for r in acc),
        "estimate.flagged_frac": sum(1 for r in acc if r.flags) / calls,
        "estimate.failed_frac": sum(loop.failed[:n_acc]) / calls,
    }


def environment() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            rev = out.stdout.strip()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=None,
                   help="use only this many evaluation frames (smoke tests)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.frames is not None and args.frames < 1):
        p.error("--seconds and --frames must be positive")
    return args


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rowloc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a rowloc source checkout "
              "(needs src/rowloc and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    spec = json.loads(spec_path.read_text())
    wl_cls = WORKLOADS[args.workload]
    inputs = wl_cls.make_inputs(args.seed, args.frames)
    n_frames = len(inputs.clouds)
    cap = args.frames if args.frames is not None else math.inf
    n_check = min(CHECK_FRAMES, n_frames)
    n_acc = min(wl_cls.accuracy_frames, cap)

    calib = Calibration()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_dir:
            template, setup_times, setup_raw, file_bytes, problems = setup(
                inputs, Path(tmp_dir), calib)
    finally:
        if tracer:
            tracer.uninstall()

    workload = wl_cls(inputs, template)
    # the reference pass doubles as the untimed warm-up
    reference = workload.reference(n_check)

    if not args.trace:
        loop = run_loop(workload, args.seconds, max(n_check, n_acc), cap, calib)
        # before the check, whose AC7 run would otherwise set the peak RSS
        metrics = end_to_end_metrics(loop, setup_times)
        problems += check_results(workload, loop, reference, n_acc)
        names = spec["end_to_end"]
        attempted, failed = loop.attempted, sum(loop.failed)
        info = {"frames_timed": len(loop.frame_ms), "accuracy_frames": n_acc,
                "as_measured": {"frame_ms_p50": statistics.median(loop.raw_ms),
                                "frame_ms_p90": float(np.percentile(loop.raw_ms, 90)),
                                "frames_per_s": len(loop.raw_ms) / loop.elapsed,
                                "setup_s": statistics.median(setup_raw)}}
    else:
        half = args.seconds / 2.0
        plain = run_loop(workload, half, max(n_check, n_acc), cap, calib)
        n_count = min(COUNT_FRAMES, cap)
        tracer.install()
        try:
            traced = run_loop(workload, half, max(n_check, n_count), cap, calib, tracer)
        finally:
            tracer.uninstall()
        problems += check_results(workload, plain, reference, n_acc)
        common = min(len(plain.results), len(traced.results))
        if not _same_results(plain.results[:common], traced.results[:common]):
            problems.append("traced estimates differ from untraced ones")
        metrics, missing = layers.layer_metrics(
            tracer, wl_cls.bypassed_spans, n_count, file_bytes)
        metrics["trace.overhead_frames_per_s"] = plain.frames_per_s - traced.frames_per_s
        metrics.update(estimate_metrics(plain, n_acc))
        if missing:
            print("missing spans (no call recorded): " + ", ".join(sorted(missing)),
                  file=sys.stderr)
        names = spec["per_layer"]
        attempted = plain.attempted + traced.attempted
        failed = sum(plain.failed) + sum(traced.failed)
        info = {"frames_untraced": len(plain.frame_ms), "frames_traced": len(traced.frame_ms),
                "count_frames": n_count, "missing_spans": sorted(missing)}

    units = {m["name"]: m["unit"] for m in names}
    extra = set(metrics) - set(units)
    if extra:
        raise RuntimeError(f"metrics not listed in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                env=environment())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
