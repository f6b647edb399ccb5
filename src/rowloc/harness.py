"""Experiment runners: accuracy, robustness sweeps, baseline comparison,
and the closed-loop line-following demo, all on synthetic scenes.

Every frame is localized through one dispatcher, `_localize_frame`, which
maps a stateless method (uniform sampling, grid search, the baselines)
to its estimator.  `evaluate_frames` adds the particle filter, the one
method that carries state from frame to frame.  The five robustness
sweeps share one core, `_sweep`: each sweep supplies its values, the
template and frames (cloud, truth, seed) of each value, and the tables
it writes.  Every CSV file goes through one writer, `_write_csv`.

Every runner is deterministic under a fixed master seed; per-frame and
per-cell seeds are derived hierarchically with numpy's SeedSequence.
Results are returned in memory and optionally written as CSV files plus
a JSON run manifest.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    BaselineParams,
    SideMissingError,
    baseline1,
    baseline2,
    baseline2_refine_offset,
)
from .geometry import (
    Box3,
    DegenerateInputError,
    PointCloud,
    Pose6D,
    cutoff_filter,
    invert,
    make_pose_transform,
    transform_cloud,
)
from .mcl import (
    FLAG_LOW_CONFIDENCE,
    MclConfig,
    OdometryDelta,
    init_particles,
    localize_grid,
    localize_pf,
    localize_uniform,
)
from .metrics import ErrorMetrics, accumulated_error_distribution, compute_metrics
from .synth import (
    OrchardScene,
    OrchardSpec,
    SensorSpec,
    TrajectorySpec,
    bend_row,
    bent_pose,
    generate_scene,
    remove_unit_trees,
    render_frame,
    simulate_odometry,
    sinusoidal_trajectory,
    truncate_row_end,
    vineyard_preset,
)
from .template import (
    TEMPLATE_HEADER,
    GroundTruthPose,
    Template,
    TemplateConfig,
    build_template,
)

TEMPLATE_METHODS = ("template-uniform", "template-pf", "template-grid")
BASELINE_METHODS = ("baseline1", "baseline2", "baseline2-refined")
# every method evaluate_frames runs
METHODS = TEMPLATE_METHODS + BASELINE_METHODS
ALL_METHODS = TEMPLATE_METHODS[:2] + BASELINE_METHODS
# the sweeps localize every frame on its own, with no filter or baseline
SWEEP_METHODS = ("template-uniform", "template-grid")

DEFAULT_ODOMETRY_SIGMA = np.diag([0.02**2, 0.02**2, 0.01**2])


class ClosedLoopDiverged(RuntimeError):
    pass


def derive_seed(master: int, *indices: int) -> int:
    """Stable child seed for a (run, cell, frame, ...) coordinate."""
    return int(np.random.SeedSequence([master, *indices]).generate_state(1)[0])


@dataclass(frozen=True)
class ControllerGains:
    k_y: float = 0.8  # rad/s per meter of lateral offset
    k_theta: float = 1.5
    max_steer_rate: float = 0.6  # rad/s saturation

    def __post_init__(self):
        if self.k_y < 0 or self.k_theta < 0 or self.max_steer_rate <= 0:
            raise ValueError("gains must be nonnegative and saturation positive")


@dataclass
class ExperimentConfig:
    scene: OrchardSpec = field(default_factory=vineyard_preset)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    template_cfg: TemplateConfig = field(default_factory=TemplateConfig)
    mcl_cfg: MclConfig = field(default_factory=MclConfig)
    baseline_params: BaselineParams = field(default_factory=BaselineParams)
    method: str = "template-uniform"
    n_template_frames: int = 100
    n_eval_frames: int | None = None  # evenly subsample evaluation frames
    # drop evaluation frames whose station is within this distance of the
    # row end (they face open ground); None keeps every frame
    eval_end_margin: float | None = None
    odometry_sigma: np.ndarray = field(default_factory=lambda: DEFAULT_ODOMETRY_SIGMA.copy())
    gains: ControllerGains = field(default_factory=ControllerGains)
    seed: int = 0

    def __post_init__(self):
        # checked here, before any scene is rendered or template built
        if self.n_template_frames < 1:
            raise ValueError(f"n_template_frames must be at least 1, got {self.n_template_frames}")
        if self.n_eval_frames is not None and self.n_eval_frames < 1:
            raise ValueError(f"n_eval_frames must be at least 1 or None, got {self.n_eval_frames}")
        margin = self.eval_end_margin
        if margin is not None and not (math.isfinite(margin) and margin >= 0):
            raise ValueError(f"eval_end_margin must be finite and non-negative, got {margin}")


@dataclass
class Dataset:
    """Rendered frames with their ground-truth poses."""

    clouds: list[PointCloud]
    poses: list[Pose6D]  # true poses in {R}
    local_truth: np.ndarray  # (n, 2) true (y, theta) relative to the local centerline


@dataclass
class FrameResult:
    frame: int
    y_est: float
    theta_est: float
    std_y: float
    std_theta: float
    loglik: float
    flags: str
    y_true: float
    theta_true: float
    method: str = ""

    @property
    def y_error(self) -> float:
        return self.y_est - self.y_true

    @property
    def theta_error(self) -> float:
        return self.theta_est - self.theta_true


def make_dataset(
    scene: OrchardScene,
    trajectory: TrajectorySpec,
    sensor: SensorSpec,
    seed: int,
    curvature_radius: float = math.inf,
) -> Dataset:
    """Render a trajectory sweep of the scene (optionally on a bent row)."""
    sim_scene = bend_row(scene, curvature_radius)
    poses_t = sinusoidal_trajectory(trajectory, scene.spec.row_length, scene.spec, sensor)
    clouds, poses, truth = [], [], []
    for i, (sp, _) in enumerate(poses_t):
        world_pose = bent_pose(sp, curvature_radius)
        clouds.append(render_frame(sim_scene, world_pose, sensor, derive_seed(seed, 1, i)))
        poses.append(world_pose)
        truth.append((sp.y, sp.yaw))
    return Dataset(clouds, poses, np.array(truth).reshape(-1, 2))


def template_from_dataset(ds: Dataset, cfg: ExperimentConfig, n_frames: int | None = None) -> Template:
    n = n_frames if n_frames is not None else cfg.n_template_frames
    n = min(n, len(ds.clouds))
    truths = [GroundTruthPose(y=float(y), theta=float(th)) for y, th in ds.local_truth[:n]]
    return build_template(ds.clouds[:n], truths, cfg.template_cfg, cfg.mcl_cfg.pre_cfg)


def _true_template_transform(ds: Dataset, i: int):
    """{V}->{T} transform from the generator truth for frame i."""
    pose = ds.poses[i]
    y, th = ds.local_truth[i]
    return make_pose_transform(float(y), float(th), pose.roll, pose.pitch, pose.z)


def degrade_in_template_frame(ds: Dataset, i: int, fn) -> PointCloud:
    """Apply a {T}-frame degradation operator to frame i's cloud."""
    T = _true_template_transform(ds, i)
    cloud_T = transform_cloud(T, ds.clouds[i])
    cloud_T = fn(cloud_T)
    return transform_cloud(invert(T), cloud_T)


def _from_estimate(est) -> tuple:
    """The estimate fields of a FrameResult, from a PoseEstimate."""
    return est.pose.y, est.pose.theta, est.std_y, est.std_theta, est.loglik, ";".join(est.flags)


def _baseline2_refined(cloud, template, cfg, seed):
    _, theta, pair = baseline2(cloud, cfg.baseline_params, seed)
    return baseline2_refine_offset(cloud, pair, cfg.baseline_params), theta


# stateless method -> (estimator (cloud, template, cfg, seed), seed tag of
# evaluate_frames).  Template estimators return a PoseEstimate, baselines
# (y, theta).  template-pf carries its particles from frame to frame, so
# evaluate_frames runs it in a loop of its own.
_ESTIMATORS = {
    "template-uniform": (lambda c, tpl, cfg, seed: localize_uniform(c, tpl, cfg.mcl_cfg, seed), 4),
    "template-grid": (lambda c, tpl, cfg, seed: localize_grid(c, tpl, cfg.mcl_cfg), 4),
    "baseline1": (lambda c, tpl, cfg, seed: baseline1(c, cfg.baseline_params, seed), 5),
    "baseline2": (lambda c, tpl, cfg, seed: baseline2(c, cfg.baseline_params, seed)[:2], 5),
    "baseline2-refined": (_baseline2_refined, 5),
}


def _localize_frame(method, cloud, template, cfg, seed, frame, truth) -> FrameResult:
    """One frame localized on its own by a stateless method, as a FrameResult.
    A baseline fit that fails gives (0, 0), flagged with the reason."""
    estimate, _ = _ESTIMATORS[method]
    if method in TEMPLATE_METHODS:
        fields = _from_estimate(estimate(cloud, template, cfg, seed))
    else:
        try:
            y, theta = estimate(cloud, template, cfg, seed)
            flags = ""
        except SideMissingError:
            y, theta, flags = 0.0, 0.0, "side-missing"
        except DegenerateInputError:
            y, theta, flags = 0.0, 0.0, "degenerate"
        fields = (y, theta, math.nan, math.nan, math.nan, flags)
    return FrameResult(frame, *fields, float(truth[0]), float(truth[1]), method)


def evaluate_frames(
    clouds: list[PointCloud],
    truth: np.ndarray,
    template: Template | None,
    cfg: ExperimentConfig,
    method: str | None = None,
    seed_tag: int = 0,
    odometry: list[OdometryDelta] | None = None,
) -> list[FrameResult]:
    """Localize every frame with the chosen method.

    Raises ValueError before localizing any frame when the method is
    unknown or its inputs do not match: a template method without a
    template, truth of another length than clouds, or template-pf without
    an odometry delta between each pair of frames.
    """
    return list(_frame_results(clouds, truth, template, cfg, method, seed_tag, odometry))


def _frame_results(clouds, truth, template, cfg, method, seed_tag, odometry):
    """`evaluate_frames`'s results as an iterator, one FrameResult per frame.

    The inputs are checked here, before any frame is localized; the frames
    are localized as the iterator is drawn from.
    """
    method = method or cfg.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in TEMPLATE_METHODS and template is None:
        raise ValueError(f"method {method} needs a template")
    if len(truth) != len(clouds):
        raise ValueError(f"{len(clouds)} clouds vs {len(truth)} truth poses")
    if method != "template-pf":
        tag = _ESTIMATORS[method][1]
        return (
            _localize_frame(method, cloud, template, cfg, derive_seed(cfg.seed, tag, seed_tag, i),
                            i, truth[i])
            for i, cloud in enumerate(clouds)
        )
    if odometry is None:
        raise ValueError("template-pf needs odometry deltas")
    if len(odometry) < len(clouds) - 1:
        raise ValueError(f"{len(clouds)} clouds need {len(clouds) - 1} odometry deltas, "
                         f"got {len(odometry)}")
    return _pf_results(clouds, truth, template, cfg, seed_tag, odometry)


def _pf_results(clouds, truth, template, cfg, seed_tag, odometry):
    """The particle filter's FrameResults, frame by frame, on inputs
    `_frame_results` has checked."""
    particles = init_particles(cfg.mcl_cfg, derive_seed(cfg.seed, 2, seed_tag))
    zero_u = OdometryDelta(np.zeros(3), cfg.odometry_sigma)
    for i, cloud in enumerate(clouds):
        u = zero_u if i == 0 else odometry[i - 1]
        est, particles = localize_pf(
            cloud, particles, u, template, cfg.mcl_cfg, derive_seed(cfg.seed, 3, seed_tag, i)
        )
        yield FrameResult(i, *_from_estimate(est), float(truth[i][0]), float(truth[i][1]),
                          "template-pf")


def results_metrics(results: list[FrameResult]) -> dict[str, ErrorMetrics]:
    return {
        "y": compute_metrics([r.y_error for r in results]),
        "theta": compute_metrics([r.theta_error for r in results]),
    }


# ---------------------------------------------------------------------------
# output helpers

RESULT_HEADER = "frame,y_est,theta_est,std_y,std_theta,loglik,flags,y_true,theta_true,method"


def _write_csv(path, header: str, rows) -> None:
    """header, then one comma-joined line per row.  Floats are written as
    repr(float(v)): numpy 2 writes repr(np.float64(x)) as "np.float64(x)"."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
            f.write(",".join(cells) + "\n")


def _results_table(results: list[FrameResult]) -> tuple[str, list]:
    return RESULT_HEADER, [dataclasses.astuple(r) for r in results]


def write_results_csv(path, results: list[FrameResult]) -> None:
    _write_csv(path, *_results_table(results))


def _metrics_table(named_metrics: dict) -> tuple[str, list]:
    rows = [(name, axis, m.as_row()) for name, metrics in named_metrics.items()
            for axis, m in metrics.items()]
    return "name,axis,mae,sd,p95,n", rows


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_manifest(out_dir, cfg: ExperimentConfig, runner: str, extra: dict | None = None) -> None:
    manifest = {
        "runner": runner,
        "version": __version__,
        "seed": cfg.seed,
        "config": _jsonable(cfg),
    }
    if extra:
        manifest.update(_jsonable(extra))
    Path(out_dir, "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _write_run(out_dir, cfg: ExperimentConfig, runner: str, tables: dict, extra=None) -> None:
    """Write each table {file name: (header, rows)} and the run manifest
    into out_dir; nothing when out_dir is None."""
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    write_manifest(out_dir, cfg, runner, extra)


# ---------------------------------------------------------------------------
# runners


# seed tag of the run that run_accuracy evaluates (and `rowloc gen-scene` writes)
ACCURACY_TAG = 10


def render_run(cfg: ExperimentConfig, tag: int, *index: int) -> Dataset:
    """The scene seeded (tag, *index), rendered along the trajectory with
    seed (tag + 1, *index): the run a runner builds its template from."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, tag, *index))
    return make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, tag + 1, *index))


def run_accuracy(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Template build on the first frames of a run, evaluation on all frames."""
    ds = render_run(cfg, ACCURACY_TAG)
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    odo = _dataset_odometry(eval_ds, cfg)
    results = evaluate_frames(
        eval_ds.clouds, eval_ds.local_truth, template, cfg, odometry=odo
    )
    out = {"results": results, "metrics": results_metrics(results), "template": template}
    tables = {
        "frames.csv": _results_table(results),
        "metrics.csv": _metrics_table({"with_cutoff": out["metrics"]}),
    }
    _write_run(out_dir, cfg, "run_accuracy", tables)
    return out


def _take(ds: Dataset, idx) -> Dataset:
    return Dataset(
        [ds.clouds[i] for i in idx],
        [ds.poses[i] for i in idx],
        ds.local_truth[np.asarray(idx, dtype=int)],
    )


def _eval_subset(ds: Dataset, cfg: ExperimentConfig) -> Dataset:
    """The frames cfg evaluates: those at least cfg.eval_end_margin from the
    row end, then cfg.n_eval_frames of them evenly spaced."""
    if cfg.eval_end_margin is not None:
        limit = cfg.scene.row_length - cfg.eval_end_margin
        ds = _take(ds, [i for i, p in enumerate(ds.poses) if p.x <= limit])
    n = cfg.n_eval_frames
    if n is None or n >= len(ds.clouds):
        return ds
    return _take(ds, np.linspace(0, len(ds.clouds) - 1, n).astype(int))


def _dataset_odometry(ds: Dataset, cfg: ExperimentConfig) -> list[OdometryDelta]:
    if len(ds.poses) < 2:
        return []
    return simulate_odometry(ds.poses, cfg.odometry_sigma, derive_seed(cfg.seed, 12))


def run_cross_template_matrix(cfg: ExperimentConfig, k_rows: int, out_dir=None) -> dict:
    """Template from row k evaluated in row j, for all (k, j)."""
    if k_rows < 2:
        raise ValueError("need at least two rows")
    datasets, templates = [], []
    for k in range(k_rows):
        ds = render_run(cfg, 20, k)
        templates.append(template_from_dataset(ds, cfg))
        datasets.append(_eval_subset(ds, cfg))
    mae_y = np.zeros((k_rows, k_rows))
    mae_theta = np.zeros((k_rows, k_rows))
    for k in range(k_rows):
        for j in range(k_rows):
            odo = _dataset_odometry(datasets[j], cfg)
            res = evaluate_frames(
                datasets[j].clouds, datasets[j].local_truth, templates[k], cfg,
                seed_tag=k * k_rows + j, odometry=odo,
            )
            m = results_metrics(res)
            mae_y[k, j] = m["y"].mae
            mae_theta[k, j] = m["theta"].mae
    header = ",".join(["template_row"] + [f"eval_row_{j}" for j in range(k_rows)])
    _write_run(out_dir, cfg, "run_cross_template_matrix",
               {"mae_y.csv": (header, [(k, *row) for k, row in enumerate(mae_y)]),
                "mae_theta.csv": (header, [(k, *row) for k, row in enumerate(mae_theta)])},
               {"k_rows": k_rows})
    return {"mae_y": mae_y, "mae_theta": mae_theta}


# ---------------------------------------------------------------------------
# robustness sweeps


def check_sweep_method(method: str) -> None:
    """Raise ValueError unless the sweep runners can run `method`."""
    if method not in SWEEP_METHODS:
        raise ValueError(
            f"sweeps support methods {', '.join(SWEEP_METHODS)}; got {method!r}"
        )


def _sweep(cfg: ExperimentConfig, cases) -> dict:
    """The sweep core: every frame of every swept value localized on its own
    with cfg.method, as {value: [FrameResult]}.

    cases yields (value, template, frames) per swept value, frames being
    (frame index, cloud, truth, seed) tuples.  It is drawn from only after
    the method check, so a method the sweeps cannot run renders nothing.
    """
    check_sweep_method(cfg.method)
    return {
        value: [_localize_frame(cfg.method, cloud, template, cfg, seed, i, truth)
                for i, cloud, truth, seed in frames]
        for value, template, frames in cases
    }


def _frames(cfg: ExperimentConfig, ds: Dataset, seed_key: tuple, degrade=None):
    """Sweep frames of every frame i of ds, seeded (*seed_key, i); each cloud
    is degraded in the template frame by `degrade` if one is given."""
    for i, cloud in enumerate(ds.clouds):
        if degrade is not None:
            cloud = degrade_in_template_frame(ds, i, degrade)
        yield i, cloud, ds.local_truth[i], derive_seed(cfg.seed, *seed_key, i)


_SWEEP_ROW_HEADER = "draw,frame,y_err,theta_err,std_y,std_theta"


def _sweep_row(value, draw: int, r: FrameResult) -> tuple:
    return value, draw, r.frame, r.y_error, r.theta_error, r.std_y, r.std_theta


def _sweep_curves(results: dict) -> dict:
    return {
        v: {
            **results_metrics(res),
            "std_y_mean": float(np.mean([r.std_y for r in res])),
            "std_theta_mean": float(np.mean([r.std_theta for r in res])),
        }
        for v, res in results.items()
    }


def _curves_table(param_name: str, curves: dict) -> tuple[str, list]:
    header = f"{param_name},y_mae,y_sd,theta_mae,theta_sd,std_y_mean,std_theta_mean"
    return header, [
        (v, c["y"].mae, c["y"].sd, c["theta"].mae, c["theta"].sd, c["std_y_mean"], c["std_theta_mean"])
        for v, c in curves.items()
    ]


def run_gap_sweep(
    cfg: ExperimentConfig,
    n_values=tuple(range(0, 41, 4)),
    n_draws: int = 100,
    out_dir=None,
) -> dict:
    """Random unit-tree removal: error and confidence curves vs gap count."""

    def draws(ds, n):
        for draw in range(n_draws):
            i = draw % len(ds.clouds)
            seed = derive_seed(cfg.seed, 32, n, draw)
            cloud = degrade_in_template_frame(ds, i, lambda c: remove_unit_trees(c, n, seed))
            yield i, cloud, ds.local_truth[i], derive_seed(cfg.seed, 33, n, draw)

    def cases():
        ds = render_run(cfg, 30)
        template = template_from_dataset(ds, cfg)
        eval_ds = _eval_subset(ds, cfg)
        for n in n_values:
            yield n, template, draws(eval_ds, n)

    results = _sweep(cfg, cases())
    rows = [_sweep_row(n, draw, r) for n, res in results.items() for draw, r in enumerate(res)]
    curves = _sweep_curves(results)
    _write_run(out_dir, cfg, "run_gap_sweep",
               {"draws.csv": (f"n_removed,{_SWEEP_ROW_HEADER}", rows),
                "curves.csv": _curves_table("n_removed", curves)},
               {"n_values": list(n_values), "n_draws": n_draws})
    return {"rows": rows, "curves": curves}


def run_rowend_sweep(
    cfg: ExperimentConfig, d_values=(20.0, 15.0, 10.0, 5.0, 3.0, 2.0, 1.0), out_dir=None
) -> dict:
    """Row-end truncation: accuracy and flag rate vs distance to the end."""

    def cases():
        ds = render_run(cfg, 40)
        template = template_from_dataset(ds, cfg)
        eval_ds = _eval_subset(ds, cfg)
        for d in d_values:
            yield d, template, _frames(cfg, eval_ds, (42, round(d * 100)),
                                       lambda c, d=d: truncate_row_end(c, d))

    results = _sweep(cfg, cases())
    rows = [_sweep_row(d, 0, r) for d, res in results.items() for r in res]
    curves = _sweep_curves(results)
    flag_rates = {
        d: sum(FLAG_LOW_CONFIDENCE in r.flags.split(";") for r in res) / len(res)
        for d, res in results.items()
    }
    _write_run(out_dir, cfg, "run_rowend_sweep",
               {"frames.csv": (f"distance,{_SWEEP_ROW_HEADER}", rows),
                "curves.csv": _curves_table("distance", curves),
                "flag_rates.csv": ("distance,low_confidence_rate", flag_rates.items())},
               {"d_values": list(d_values)})
    return {"rows": rows, "curves": curves, "flag_rates": flag_rates}


def run_curvature_sweep(
    cfg: ExperimentConfig,
    radii=(135.0, 200.0, 300.0, 500.0, math.inf),
    sensor_ranges=(10.0, 20.0),
    out_dir=None,
) -> dict:
    """Straight-row template evaluated on rows of increasing curvature."""

    def cases():
        scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 50))
        for rng_m in sensor_ranges:
            sensor = replace(cfg.sensor, max_range=rng_m)
            straight = make_dataset(scene, cfg.trajectory, sensor, derive_seed(cfg.seed, 51))
            template = template_from_dataset(straight, cfg)
            for radius in radii:
                ds = make_dataset(scene, cfg.trajectory, sensor, derive_seed(cfg.seed, 51), radius)
                yield (rng_m, radius), template, _frames(cfg, _eval_subset(ds, cfg), (52, int(rng_m)))

    out = {key: results_metrics(res) for key, res in _sweep(cfg, cases()).items()}
    rows = [(*key, m["y"].mae, m["y"].sd, m["theta"].mae, m["theta"].sd) for key, m in out.items()]
    _write_run(out_dir, cfg, "run_curvature_sweep",
               {"curves.csv": ("sensor_range,radius,y_mae,y_sd,theta_mae,theta_sd", rows)},
               {"radii": [str(r) for r in radii], "sensor_ranges": list(sensor_ranges)})
    return out


def run_voxel_sweep(cfg: ExperimentConfig, sizes=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0), out_dir=None) -> dict:
    """Rebuild the template at each voxel size and re-evaluate."""

    def cases():
        ds = render_run(cfg, 60)
        eval_ds = _eval_subset(ds, cfg)
        for size in sizes:
            tpl_cfg = replace(cfg.template_cfg, resolution=size)
            template = template_from_dataset(ds, replace(cfg, template_cfg=tpl_cfg))
            yield size, template, _frames(cfg, eval_ds, (62, round(size * 1000)))

    out = {}
    for size, res in _sweep(cfg, cases()).items():
        # the template grid's shape is its config's dims
        n_voxels = int(np.prod(replace(cfg.template_cfg, resolution=size).dims))
        out[size] = {
            **results_metrics(res),
            "n_voxels": n_voxels,
            "file_size": TEMPLATE_HEADER.size + 4 * n_voxels,  # header + f32 payload
        }
    rows = [(size, m["y"].mae, m["theta"].mae, m["n_voxels"], m["file_size"]) for size, m in out.items()]
    _write_run(out_dir, cfg, "run_voxel_sweep",
               {"table.csv": ("voxel_size,y_mae,theta_mae,n_voxels,file_size_bytes", rows)},
               {"sizes": list(sizes)})
    return out


def run_template_size_sweep(
    cfg: ExperimentConfig, counts=(1, 5, 10, 20, 100, 200, 300), out_dir=None
) -> dict:
    """Vary the number of template-building frames."""

    def cases():
        ds = render_run(cfg, 70)
        eval_ds = _eval_subset(ds, cfg)
        for count in counts:
            template = template_from_dataset(ds, cfg, n_frames=count)
            yield count, template, _frames(cfg, eval_ds, (72, count))

    out = {count: results_metrics(res) for count, res in _sweep(cfg, cases()).items()}
    rows = [(count, m["y"].mae, m["y"].sd, m["y"].p95, m["theta"].mae, m["theta"].sd, m["theta"].p95)
            for count, m in out.items()]
    _write_run(out_dir, cfg, "run_template_size_sweep",
               {"table.csv": ("n_frames,y_mae,y_sd,y_p95,theta_mae,theta_sd,theta_p95", rows)},
               {"counts": list(counts)})
    return out


# |true heading| (rad) above which run_compare counts a frame as large-heading
HEADING_SPLIT = 0.3


def comparison_prefilter_box() -> Box3:
    return Box3.from_ranges((0.0, 20.0), (-5.0, 5.0), (0.0, 2.5))


def run_compare(cfg: ExperimentConfig, out_dir=None) -> dict:
    """All methods on identical pre-filtered frames, split by heading regime.

    The frames go through the methods frame by frame: frame i is localized
    by every method before frame i + 1.  Each method's seeds depend only on
    its seed tag and the frame, so its rows are `evaluate_frames`'s.
    """
    ds = render_run(cfg, 80)
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    box = comparison_prefilter_box()
    filtered = [
        degrade_in_template_frame(eval_ds, i, lambda c: cutoff_filter(c, box))
        for i in range(len(eval_ds.clouds))
    ]
    odo = _dataset_odometry(eval_ds, cfg)

    # each cloud goes through every method in turn, so it is preprocessed
    # once (`preprocess` remembers its last call)
    streams = [
        _frame_results(filtered, eval_ds.local_truth, template, cfg, method, 100 + m_i, odo)
        for m_i, method in enumerate(ALL_METHODS)
    ]
    per_frame = list(zip(*streams))
    all_results = {method: [row[m_i] for row in per_frame]
                   for m_i, method in enumerate(ALL_METHODS)}
    tables: dict[str, dict] = {}
    for method, res in all_results.items():
        overall = results_metrics(res)
        large = [r for r in res if abs(r.theta_true) > HEADING_SPLIT]
        small = [r for r in res if abs(r.theta_true) <= HEADING_SPLIT]
        tables[method] = {
            "overall": overall,
            "large_heading": results_metrics(large) if large else None,
            "small_heading": results_metrics(small) if small else None,
        }
    thresholds = np.linspace(0.0, 1.5, 76)
    files = {}
    for method, res in all_results.items():
        files[f"frames_{method}.csv"] = _results_table(res)
        for axis, getter in (("y", lambda r: r.y_error), ("theta", lambda r: r.theta_error)):
            curve = accumulated_error_distribution([getter(r) for r in res], thresholds)
            files[f"accumulated_{axis}_{method}.csv"] = ("threshold,fraction", zip(thresholds, curve))
    files["summary.csv"] = ("method,regime,axis,mae,sd,p95,n", [
        (method, regime, axis, m.as_row())
        for method, t in tables.items()
        for regime, metrics in t.items() if metrics is not None
        for axis, m in metrics.items()
    ])
    _write_run(out_dir, cfg, "run_compare", files)
    return {"results": all_results, "tables": tables}


def closed_loop_sim(cfg: ExperimentConfig, y0: float = 0.3, out_dir=None) -> dict:
    """Proportional line following driven by per-frame template localization.

    The template is built from a run through the scene seeded 90,
    rendered with seed 91.  Unicycle plant at the trajectory speed,
    starting at lateral offset y0 with heading 0; the steering rate is
    -k_y * y_est - k_theta * theta_est, saturated.  Each frame is localized
    on its own with cfg.method, which must be one of SWEEP_METHODS (no
    particle filter, no baseline).
    """
    check_sweep_method(cfg.method)
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 90))
    build_ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 91))
    template = template_from_dataset(build_ds, cfg)

    dt = 1.0 / cfg.trajectory.frame_rate
    v = cfg.trajectory.speed
    gains = cfg.gains
    x, y, theta = 0.0, y0, 0.0
    half_row = cfg.scene.row_spacing / 2.0
    log = []  # (t, x, y, theta, y_est, theta_est, omega)
    step = 0
    while x < cfg.scene.row_length:
        pose = Pose6D(x=x, y=y, z=cfg.sensor.mount_height, yaw=theta)
        cloud = render_frame(scene, pose, cfg.sensor, derive_seed(cfg.seed, 92, step))
        est = _localize_frame(cfg.method, cloud, template, cfg, derive_seed(cfg.seed, 93, step),
                              step, (y, theta))
        omega = -gains.k_y * est.y_est - gains.k_theta * est.theta_est
        omega = max(-gains.max_steer_rate, min(gains.max_steer_rate, omega))
        log.append((step * dt, x, y, theta, est.y_est, est.theta_est, omega))
        x += v * math.cos(theta) * dt
        y += v * math.sin(theta) * dt
        theta += omega * dt
        step += 1
        if abs(y) > half_row:
            raise ClosedLoopDiverged(
                f"|lateral offset| {abs(y):.2f} m exceeded half row width at x={x:.1f} m"
            )
    offsets = [row[2] for row in log]
    headings = [row[3] for row in log]
    out = {
        "log": log,
        "offset_metrics": compute_metrics(offsets),
        "heading_metrics": compute_metrics(headings),
    }
    tracking = {"offset": {"y": out["offset_metrics"]}, "heading": {"theta": out["heading_metrics"]}}
    _write_run(out_dir, cfg, "closed_loop_sim",
               {"trajectory.csv": ("t,x,y,theta,y_est,theta_est,omega", [map(float, row) for row in log]),
                "tracking.csv": _metrics_table(tracking)},
               {"y0": y0})
    return out
