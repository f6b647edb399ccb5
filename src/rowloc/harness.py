"""Experiment runners: accuracy, robustness sweeps, baseline comparison,
and the closed-loop line-following demo, all on synthetic scenes.

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
    LowConfidenceFitError,
    PointCloud,
    Pose6D,
    cutoff_filter,
    invert,
    make_pose_transform,
    transform_cloud,
)
from .mcl import (
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
ALL_METHODS = TEMPLATE_METHODS[:2] + BASELINE_METHODS

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
    n_frames: int | None = None,
) -> Dataset:
    """Render a trajectory sweep of the scene (optionally on a bent row)."""
    sim_scene = bend_row(scene, curvature_radius)
    poses_t = sinusoidal_trajectory(trajectory, scene.spec.row_length, scene.spec, sensor)
    straight_poses = [p for p, _ in poses_t]
    if n_frames is not None and n_frames < len(straight_poses):
        idx = np.linspace(0, len(straight_poses) - 1, n_frames).astype(int)
        straight_poses = [straight_poses[i] for i in idx]
    clouds, poses, truth = [], [], []
    for i, sp in enumerate(straight_poses):
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
    cloud_T = transform_cloud(T, ds.clouds[i], frame="T")
    cloud_T = fn(cloud_T)
    return transform_cloud(invert(T), cloud_T, frame="C")


def _estimate_to_result(est, i, truth, method) -> FrameResult:
    return FrameResult(
        frame=i,
        y_est=est.pose.y,
        theta_est=est.pose.theta,
        std_y=est.std_y,
        std_theta=est.std_theta,
        loglik=est.loglik,
        flags=";".join(est.flags),
        y_true=float(truth[0]),
        theta_true=float(truth[1]),
        method=method,
    )


def evaluate_frames(
    clouds: list[PointCloud],
    truth: np.ndarray,
    template: Template | None,
    cfg: ExperimentConfig,
    method: str | None = None,
    seed_tag: int = 0,
    odometry: list[OdometryDelta] | None = None,
) -> list[FrameResult]:
    """Localize every frame with the chosen method."""
    method = method or cfg.method
    results = []
    if method in TEMPLATE_METHODS and template is None:
        raise ValueError(f"method {method} needs a template")

    if method == "template-pf":
        if odometry is None:
            raise ValueError("template-pf needs odometry deltas")
        particles = init_particles(cfg.mcl_cfg, derive_seed(cfg.seed, 2, seed_tag))
        zero_u = OdometryDelta(np.zeros(3), cfg.odometry_sigma)
        for i, cloud in enumerate(clouds):
            u = zero_u if i == 0 else odometry[i - 1]
            est, particles = localize_pf(
                cloud, particles, u, template, cfg.mcl_cfg, derive_seed(cfg.seed, 3, seed_tag, i)
            )
            results.append(_estimate_to_result(est, i, truth[i], method))
        return results

    for i, cloud in enumerate(clouds):
        if method == "template-uniform":
            est = localize_uniform(cloud, template, cfg.mcl_cfg, derive_seed(cfg.seed, 4, seed_tag, i))
            results.append(_estimate_to_result(est, i, truth[i], method))
        elif method == "template-grid":
            est = localize_grid(cloud, template, cfg.mcl_cfg)
            results.append(_estimate_to_result(est, i, truth[i], method))
        elif method in BASELINE_METHODS:
            seed = derive_seed(cfg.seed, 5, seed_tag, i)
            try:
                if method == "baseline1":
                    y, th = baseline1(cloud, cfg.baseline_params, seed)
                elif method == "baseline2":
                    y, th, _ = baseline2(cloud, cfg.baseline_params, seed)
                else:
                    y, th, pair = baseline2(cloud, cfg.baseline_params, seed)
                    y = baseline2_refine_offset(cloud, pair, cfg.baseline_params)
                flags = ""
            except SideMissingError:
                y, th, flags = 0.0, 0.0, "side-missing"
            except (DegenerateInputError, LowConfidenceFitError):
                y, th, flags = 0.0, 0.0, "degenerate"
            results.append(
                FrameResult(i, y, th, math.nan, math.nan, math.nan, flags,
                            float(truth[i][0]), float(truth[i][1]), method)
            )
        else:
            raise ValueError(f"unknown method {method!r}")
    return results


def results_metrics(results: list[FrameResult]) -> dict[str, ErrorMetrics]:
    return {
        "y": compute_metrics([r.y_error for r in results]),
        "theta": compute_metrics([r.theta_error for r in results]),
    }


# ---------------------------------------------------------------------------
# output helpers

RESULT_HEADER = "frame,y_est,theta_est,std_y,std_theta,loglik,flags,y_true,theta_true,method"


def write_results_csv(path, results: list[FrameResult]) -> None:
    with open(path, "w") as f:
        f.write(RESULT_HEADER + "\n")
        for r in results:
            f.write(
                f"{r.frame},{r.y_est!r},{r.theta_est!r},{r.std_y!r},{r.std_theta!r},"
                f"{r.loglik!r},{r.flags},{r.y_true!r},{r.theta_true!r},{r.method}\n"
            )


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


def _maybe_dir(out_dir):
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# runners


def run_accuracy(
    cfg: ExperimentConfig, out_dir=None, cutoff_ablation: bool = False
) -> dict:
    """Template build on the first frames of a run, evaluation on all frames."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 10))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 11))
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    odo = _dataset_odometry(eval_ds, cfg)
    results = evaluate_frames(
        eval_ds.clouds, eval_ds.local_truth, template, cfg, odometry=odo
    )
    out = {"results": results, "metrics": results_metrics(results), "template": template}
    if cutoff_ablation:
        no_cut_cfg = replace(cfg, mcl_cfg=replace(cfg.mcl_cfg, cutoff=_no_cutoff_box()))
        nc_results = evaluate_frames(
            eval_ds.clouds, eval_ds.local_truth, template, no_cut_cfg, seed_tag=1, odometry=odo
        )
        out["no_cutoff_results"] = nc_results
        out["no_cutoff_metrics"] = results_metrics(nc_results)
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        write_results_csv(out_dir / "frames.csv", results)
        _write_metrics_csv(out_dir / "metrics.csv", {"with_cutoff": out["metrics"]})
        if cutoff_ablation:
            write_results_csv(out_dir / "frames_no_cutoff.csv", out["no_cutoff_results"])
            _write_metrics_csv(
                out_dir / "metrics_no_cutoff.csv", {"without_cutoff": out["no_cutoff_metrics"]}
            )
        write_manifest(out_dir, cfg, "run_accuracy")
    return out


def _no_cutoff_box() -> Box3:
    big = 1e9
    return Box3(np.array([-big] * 3), np.array([big] * 3))


def _take(ds: Dataset, idx) -> Dataset:
    return Dataset(
        [ds.clouds[i] for i in idx],
        [ds.poses[i] for i in idx],
        ds.local_truth[np.asarray(idx, dtype=int)],
    )


def _subsample(ds: Dataset, n: int | None, end_margin: float | None = None, row_length: float | None = None) -> Dataset:
    if end_margin is not None and row_length is not None:
        keep = [i for i, p in enumerate(ds.poses) if p.x <= row_length - end_margin]
        ds = _take(ds, keep)
    if n is None or n >= len(ds.clouds):
        return ds
    idx = np.linspace(0, len(ds.clouds) - 1, n).astype(int)
    return _take(ds, idx)


def _eval_subset(ds: Dataset, cfg: ExperimentConfig) -> Dataset:
    return _subsample(ds, cfg.n_eval_frames, cfg.eval_end_margin, cfg.scene.row_length)


def _dataset_odometry(ds: Dataset, cfg: ExperimentConfig) -> list[OdometryDelta]:
    if len(ds.poses) < 2:
        return []
    return simulate_odometry(ds.poses, cfg.odometry_sigma, derive_seed(cfg.seed, 12))


def _write_metrics_csv(path, named_metrics: dict) -> None:
    with open(path, "w") as f:
        f.write("name,axis,mae,sd,p95,n\n")
        for name, metrics in named_metrics.items():
            for axis, m in metrics.items():
                f.write(f"{name},{axis},{m.as_row()}\n")


def run_cross_template_matrix(cfg: ExperimentConfig, k_rows: int, out_dir=None) -> dict:
    """Template from row k evaluated in row j, for all (k, j)."""
    if k_rows < 2:
        raise ValueError("need at least two rows")
    datasets, templates = [], []
    for k in range(k_rows):
        scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 20, k))
        ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 21, k))
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
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        np.savetxt(out_dir / "mae_y.csv", mae_y, delimiter=",")
        np.savetxt(out_dir / "mae_theta.csv", mae_theta, delimiter=",")
        write_manifest(out_dir, cfg, "run_cross_template_matrix", {"k_rows": k_rows})
    return {"mae_y": mae_y, "mae_theta": mae_theta}


def run_gap_sweep(
    cfg: ExperimentConfig,
    n_values=tuple(range(0, 41, 4)),
    n_draws: int = 100,
    out_dir=None,
) -> dict:
    """Random unit-tree removal: error and confidence curves vs gap count."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 30))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 31))
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    n_frames = len(eval_ds.clouds)

    rows = []  # (n, draw, frame, y_err, theta_err, std_y, std_theta)
    for n in n_values:
        for draw in range(n_draws):
            i = draw % n_frames
            seed = derive_seed(cfg.seed, 32, n, draw)
            cloud = degrade_in_template_frame(
                eval_ds, i, lambda c: remove_unit_trees(c, n, seed)
            )
            est = _localize_single(cloud, template, cfg, derive_seed(cfg.seed, 33, n, draw))
            y_t, th_t = eval_ds.local_truth[i]
            rows.append(
                (n, draw, i, est.pose.y - y_t, est.pose.theta - th_t, est.std_y, est.std_theta)
            )
    curves = _sweep_curves(rows, n_values)
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        _write_sweep_rows(out_dir / "draws.csv", "n_removed", rows)
        _write_curves_csv(out_dir / "curves.csv", "n_removed", curves)
        write_manifest(out_dir, cfg, "run_gap_sweep", {"n_values": list(n_values), "n_draws": n_draws})
    return {"rows": rows, "curves": curves}


def _localize_single(cloud, template, cfg: ExperimentConfig, seed: int):
    if cfg.method == "template-grid":
        return localize_grid(cloud, template, cfg.mcl_cfg)
    return localize_uniform(cloud, template, cfg.mcl_cfg, seed)


def _sweep_curves(rows, values) -> dict:
    curves = {}
    for v in values:
        sel = [r for r in rows if r[0] == v]
        ye = [r[3] for r in sel]
        te = [r[4] for r in sel]
        curves[v] = {
            "y": compute_metrics(ye),
            "theta": compute_metrics(te),
            "std_y_mean": float(np.mean([r[5] for r in sel])),
            "std_theta_mean": float(np.mean([r[6] for r in sel])),
        }
    return curves


def _write_sweep_rows(path, param_name, rows) -> None:
    with open(path, "w") as f:
        f.write(f"{param_name},draw,frame,y_err,theta_err,std_y,std_theta\n")
        for r in rows:
            f.write(
                f"{r[0]},{r[1]},{r[2]},{float(r[3])!r},{float(r[4])!r},"
                f"{float(r[5])!r},{float(r[6])!r}\n"
            )


def _write_curves_csv(path, param_name, curves) -> None:
    with open(path, "w") as f:
        f.write(f"{param_name},y_mae,y_sd,theta_mae,theta_sd,std_y_mean,std_theta_mean\n")
        for v, c in curves.items():
            f.write(
                f"{v},{c['y'].mae!r},{c['y'].sd!r},{c['theta'].mae!r},"
                f"{c['theta'].sd!r},{c['std_y_mean']!r},{c['std_theta_mean']!r}\n"
            )


def run_rowend_sweep(
    cfg: ExperimentConfig, d_values=(20.0, 15.0, 10.0, 5.0, 3.0, 2.0, 1.0), out_dir=None
) -> dict:
    """Row-end truncation: accuracy and flag rate vs distance to the end."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 40))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 41))
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)

    rows = []
    flag_rates = {}
    for d in d_values:
        flagged = 0
        for i in range(len(eval_ds.clouds)):
            cloud = degrade_in_template_frame(eval_ds, i, lambda c: truncate_row_end(c, d))
            est = _localize_single(cloud, template, cfg, derive_seed(cfg.seed, 42, int(d * 100), i))
            y_t, th_t = eval_ds.local_truth[i]
            rows.append((d, 0, i, est.pose.y - y_t, est.pose.theta - th_t, est.std_y, est.std_theta))
            if est.low_confidence:
                flagged += 1
        flag_rates[d] = flagged / len(eval_ds.clouds)
    curves = _sweep_curves(rows, d_values)
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        _write_sweep_rows(out_dir / "frames.csv", "distance", rows)
        _write_curves_csv(out_dir / "curves.csv", "distance", curves)
        with open(out_dir / "flag_rates.csv", "w") as f:
            f.write("distance,low_confidence_rate\n")
            for d, r in flag_rates.items():
                f.write(f"{d},{r!r}\n")
        write_manifest(out_dir, cfg, "run_rowend_sweep", {"d_values": list(d_values)})
    return {"rows": rows, "curves": curves, "flag_rates": flag_rates}


def run_curvature_sweep(
    cfg: ExperimentConfig,
    radii=(135.0, 200.0, 300.0, 500.0, math.inf),
    sensor_ranges=(10.0, 20.0),
    out_dir=None,
) -> dict:
    """Straight-row template evaluated on rows of increasing curvature."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 50))
    out = {}
    for rng_m in sensor_ranges:
        sensor = replace(cfg.sensor, max_range=rng_m)
        straight = make_dataset(scene, cfg.trajectory, sensor, derive_seed(cfg.seed, 51))
        template = template_from_dataset(straight, cfg)
        for radius in radii:
            ds = make_dataset(
                scene, cfg.trajectory, sensor, derive_seed(cfg.seed, 51), curvature_radius=radius
            )
            eval_ds = _eval_subset(ds, cfg)
            res = [
                _localize_single(
                    eval_ds.clouds[i], template, cfg, derive_seed(cfg.seed, 52, int(rng_m), i)
                )
                for i in range(len(eval_ds.clouds))
            ]
            ye = [r.pose.y - t[0] for r, t in zip(res, eval_ds.local_truth)]
            te = [r.pose.theta - t[1] for r, t in zip(res, eval_ds.local_truth)]
            out[(rng_m, radius)] = {"y": compute_metrics(ye), "theta": compute_metrics(te)}
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        with open(out_dir / "curves.csv", "w") as f:
            f.write("sensor_range,radius,y_mae,y_sd,theta_mae,theta_sd\n")
            for (rng_m, radius), m in out.items():
                f.write(
                    f"{rng_m},{radius},{m['y'].mae!r},{m['y'].sd!r},"
                    f"{m['theta'].mae!r},{m['theta'].sd!r}\n"
                )
        write_manifest(out_dir, cfg, "run_curvature_sweep",
                       {"radii": [str(r) for r in radii], "sensor_ranges": list(sensor_ranges)})
    return out


def run_voxel_sweep(cfg: ExperimentConfig, sizes=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0), out_dir=None) -> dict:
    """Rebuild the template at each voxel size and re-evaluate."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 60))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 61))
    eval_ds = _eval_subset(ds, cfg)
    out = {}
    for size in sizes:
        tpl_cfg = replace(cfg.template_cfg, resolution=size)
        template = template_from_dataset(ds, replace(cfg, template_cfg=tpl_cfg))
        res = [
            _localize_single(eval_ds.clouds[i], template, cfg,
                             derive_seed(cfg.seed, 62, int(size * 1000), i))
            for i in range(len(eval_ds.clouds))
        ]
        ye = [r.pose.y - t[0] for r, t in zip(res, eval_ds.local_truth)]
        te = [r.pose.theta - t[1] for r, t in zip(res, eval_ds.local_truth)]
        n_voxels = int(np.prod(template.grid.shape))
        out[size] = {
            "y": compute_metrics(ye),
            "theta": compute_metrics(te),
            "n_voxels": n_voxels,
            "file_size": TEMPLATE_HEADER.size + 4 * n_voxels,  # header + f32 payload
        }
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        with open(out_dir / "table.csv", "w") as f:
            f.write("voxel_size,y_mae,theta_mae,n_voxels,file_size_bytes\n")
            for size, m in out.items():
                f.write(f"{size},{m['y'].mae!r},{m['theta'].mae!r},{m['n_voxels']},{m['file_size']}\n")
        write_manifest(out_dir, cfg, "run_voxel_sweep", {"sizes": list(sizes)})
    return out


def run_template_size_sweep(
    cfg: ExperimentConfig, counts=(1, 5, 10, 20, 100, 200, 300), out_dir=None
) -> dict:
    """Vary the number of template-building frames."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 70))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 71))
    eval_ds = _eval_subset(ds, cfg)
    out = {}
    for count in counts:
        template = template_from_dataset(ds, cfg, n_frames=count)
        res = [
            _localize_single(eval_ds.clouds[i], template, cfg, derive_seed(cfg.seed, 72, count, i))
            for i in range(len(eval_ds.clouds))
        ]
        ye = [r.pose.y - t[0] for r, t in zip(res, eval_ds.local_truth)]
        te = [r.pose.theta - t[1] for r, t in zip(res, eval_ds.local_truth)]
        out[count] = {"y": compute_metrics(ye), "theta": compute_metrics(te)}
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        with open(out_dir / "table.csv", "w") as f:
            f.write("n_frames,y_mae,y_sd,y_p95,theta_mae,theta_sd,theta_p95\n")
            for count, m in out.items():
                f.write(
                    f"{count},{m['y'].mae!r},{m['y'].sd!r},{m['y'].p95!r},"
                    f"{m['theta'].mae!r},{m['theta'].sd!r},{m['theta'].p95!r}\n"
                )
        write_manifest(out_dir, cfg, "run_template_size_sweep", {"counts": list(counts)})
    return out


def comparison_prefilter_box(z_max: float = 2.5) -> Box3:
    return Box3.from_ranges((0.0, 20.0), (-5.0, 5.0), (0.0, z_max))


def run_compare(cfg: ExperimentConfig, out_dir=None, heading_split: float = 0.3) -> dict:
    """All methods on identical pre-filtered frames, split by heading regime."""
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 80))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 81))
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    box = comparison_prefilter_box()
    filtered = [
        degrade_in_template_frame(eval_ds, i, lambda c: cutoff_filter(c, box))
        for i in range(len(eval_ds.clouds))
    ]
    odo = _dataset_odometry(eval_ds, cfg)

    all_results: dict[str, list[FrameResult]] = {}
    tables: dict[str, dict] = {}
    for m_i, method in enumerate(ALL_METHODS):
        res = evaluate_frames(
            filtered, eval_ds.local_truth, template, cfg,
            method=method, seed_tag=100 + m_i, odometry=odo,
        )
        all_results[method] = res
        overall = results_metrics(res)
        large = [r for r in res if abs(r.theta_true) > heading_split]
        small = [r for r in res if abs(r.theta_true) <= heading_split]
        tables[method] = {
            "overall": overall,
            "large_heading": results_metrics(large) if large else None,
            "small_heading": results_metrics(small) if small else None,
        }
    thresholds = np.linspace(0.0, 1.5, 76)
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        for method, res in all_results.items():
            write_results_csv(out_dir / f"frames_{method}.csv", res)
            for axis, getter in (("y", lambda r: r.y_error), ("theta", lambda r: r.theta_error)):
                curve = accumulated_error_distribution([getter(r) for r in res], thresholds)
                with open(out_dir / f"accumulated_{axis}_{method}.csv", "w") as f:
                    f.write("threshold,fraction\n")
                    for t, v in zip(thresholds, curve):
                        f.write(f"{t!r},{v!r}\n")
        with open(out_dir / "summary.csv", "w") as f:
            f.write("method,regime,axis,mae,sd,p95,n\n")
            for method, t in tables.items():
                for regime in ("overall", "large_heading", "small_heading"):
                    if t[regime] is None:
                        continue
                    for axis, m in t[regime].items():
                        f.write(f"{method},{regime},{axis},{m.as_row()}\n")
        write_manifest(out_dir, cfg, "run_compare", {"heading_split": heading_split})
    return {"results": all_results, "tables": tables}


def closed_loop_sim(
    cfg: ExperimentConfig,
    y0: float = 0.3,
    theta0: float = 0.0,
    template: Template | None = None,
    out_dir=None,
) -> dict:
    """Proportional line following driven by per-frame template localization.

    Unicycle plant at the trajectory speed; the steering rate is
    -k_y * y_est - k_theta * theta_est, saturated.  Localization uses
    uniform sampling (no particle filter).
    """
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 90))
    if template is None:
        build_ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 91))
        template = template_from_dataset(build_ds, cfg)

    dt = 1.0 / cfg.trajectory.frame_rate
    v = cfg.trajectory.speed
    gains = cfg.gains
    x, y, theta = 0.0, y0, theta0
    half_row = cfg.scene.row_spacing / 2.0
    log = []  # (t, x, y, theta, y_est, theta_est, omega)
    step = 0
    while x < cfg.scene.row_length:
        pose = Pose6D(x=x, y=y, z=cfg.sensor.mount_height, yaw=theta)
        cloud = render_frame(scene, pose, cfg.sensor, derive_seed(cfg.seed, 92, step))
        est = localize_uniform(cloud, template, cfg.mcl_cfg, derive_seed(cfg.seed, 93, step))
        omega = -gains.k_y * est.pose.y - gains.k_theta * est.pose.theta
        omega = max(-gains.max_steer_rate, min(gains.max_steer_rate, omega))
        log.append((step * dt, x, y, theta, est.pose.y, est.pose.theta, omega))
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
    out_dir = _maybe_dir(out_dir)
    if out_dir:
        with open(out_dir / "trajectory.csv", "w") as f:
            f.write("t,x,y,theta,y_est,theta_est,omega\n")
            for row in log:
                f.write(",".join(repr(float(v_)) for v_ in row) + "\n")
        _write_metrics_csv(
            out_dir / "tracking.csv",
            {"offset": {"y": out["offset_metrics"]}, "heading": {"theta": out["heading_metrics"]}},
        )
        write_manifest(out_dir, cfg, "closed_loop_sim", {"y0": y0, "theta0": theta0})
    return out
