"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

All runs are fully seeded, so every number below is reproducible
bit-for-bit on this platform.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from rowloc.geometry import (
    Box3,
    PointCloud,
    PreprocessConfig,
    invert,
    make_pose_transform,
    transform_cloud,
)
from rowloc.harness import (
    ExperimentConfig,
    _dataset_odometry,
    _eval_subset,
    closed_loop_sim,
    derive_seed,
    evaluate_frames,
    make_dataset,
    results_metrics,
    run_compare,
    run_curvature_sweep,
    run_gap_sweep,
    run_rowend_sweep,
    run_template_size_sweep,
    run_voxel_sweep,
    template_from_dataset,
    write_results_csv,
)
from rowloc.baselines import BaselineParams
from rowloc.mcl import (
    MclConfig,
    ParticleSet,
    PoseProposal,
    _scorer_for,
    covariance_top_fraction,
    localize_grid,
    localize_uniform,
    resample,
    sample_uniform,
)
from rowloc.synth import (
    SensorSpec,
    TrajectorySpec,
    apricot_preset,
    generate_scene,
    vineyard_preset,
)
from rowloc.template import TemplateConfig, default_row_range


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def _strong_config(**over) -> ExperimentConfig:
    """Dense trellised vineyard with a wide-FOV low-noise sensor."""
    base = dict(
        scene=vineyard_preset(row_length=40.0, foliage_density=30.0, clump_amplitude=1.0),
        sensor=SensorSpec(hfov=math.radians(150.0), max_range=8.0, noise_coeff=0.001),
        trajectory=TrajectorySpec(frame_rate=10.0, amplitude=0.15, wavelength=15.0),
        mcl_cfg=MclConfig(pre_cfg=PreprocessConfig(leaf_size=0.1), n_particles=4000),
        n_template_frames=100,
        n_eval_frames=40,
        eval_end_margin=8.0,
        seed=7,
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def vineyard_run():
    """Shared scene, dataset, template, and evaluation subset."""
    cfg = _strong_config()
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 10))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 11))
    template = template_from_dataset(ds, cfg)
    eval_ds = _eval_subset(ds, cfg)
    return cfg, ds, template, eval_ds


def test_criterion_1_sampled_matches_grid_search(vineyard_run):
    cfg, ds, template, _ = vineyard_run
    sub = _eval_subset(ds, replace(cfg, n_eval_frames=20))
    t0 = time.perf_counter()
    agree = 0
    for i in range(len(sub.clouds)):
        eu = localize_uniform(sub.clouds[i], template, replace(cfg.mcl_cfg, n_particles=50_000),
                              derive_seed(cfg.seed, 100, i))
        eg = localize_grid(sub.clouds[i], template, cfg.mcl_cfg)
        if (
            abs(eu.pose.y - eg.pose.y) <= 0.02 + 1e-9
            and abs(eu.pose.theta - eg.pose.theta) <= 0.01 + 1e-9
        ):
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree >= 19 and elapsed <= 60.0
    _report("AC1 sampled-vs-grid agreement", ok, f"{agree}/20 within one cell, {elapsed:.1f}s")
    assert agree >= 19
    assert elapsed <= 60.0


def test_criterion_2_accuracy_regime(vineyard_run):
    cfg, _, template, eval_ds = vineyard_run
    odo = _dataset_odometry(eval_ds, cfg)
    m_u = results_metrics(
        evaluate_frames(eval_ds.clouds, eval_ds.local_truth, template, cfg,
                        method="template-uniform", odometry=odo)
    )
    m_p = results_metrics(
        evaluate_frames(eval_ds.clouds, eval_ds.local_truth, template, cfg,
                        method="template-pf", odometry=odo)
    )
    ok = (
        m_u["y"].mae <= 0.15
        and m_u["theta"].mae <= 0.03
        and m_p["y"].mae <= 0.08
        and m_p["y"].mae <= m_u["y"].mae
    )
    _report(
        "AC2 accuracy regime",
        ok,
        f"uniform y {m_u['y'].mae:.3f} th {m_u['theta'].mae:.4f}, pf y {m_p['y'].mae:.3f}",
    )
    assert m_u["y"].mae <= 0.15
    assert m_u["theta"].mae <= 0.03
    assert m_p["y"].mae <= 0.08
    assert m_p["y"].mae <= m_u["y"].mae


def _sweep_config(**over) -> ExperimentConfig:
    """Wide sinusoid + grid localizer used by the degradation sweeps."""
    base = dict(
        trajectory=TrajectorySpec(frame_rate=10.0, amplitude=0.7, wavelength=18.0),
        mcl_cfg=MclConfig(pre_cfg=PreprocessConfig(leaf_size=0.05), n_particles=4000),
        method="template-grid",
        n_eval_frames=10,
        eval_end_margin=9.0,
        seed=11,
    )
    base.update(over)
    return _strong_config(**base)


def test_criterion_3_gap_robustness():
    cfg = _sweep_config()
    n_values = (0, 8, 16, 20, 24, 28, 32, 36, 38)
    out = run_gap_sweep(cfg, n_values=n_values, n_draws=12)
    maes = [out["curves"][n]["y"].mae for n in n_values]
    stds = [out["curves"][n]["std_y_mean"] for n in n_values]
    rho = float(spearmanr(stds, maes).statistic)
    r20 = maes[n_values.index(20)] / maes[0]
    r38 = maes[n_values.index(38)] / maes[0]
    ok = r20 <= 2.0 and r38 >= 5.0 and rho > 0.7
    _report("AC3 gap robustness", ok, f"MAE(20)/MAE(0) {r20:.2f}, MAE(38)/MAE(0) {r38:.2f}, rho {rho:.2f}")
    assert r20 <= 2.0
    assert r38 >= 5.0
    assert rho > 0.7


def test_criterion_4_row_end_shape():
    cfg = _sweep_config()
    cfg = replace(cfg, mcl_cfg=replace(cfg.mcl_cfg, low_conf_std_theta=0.05))
    out = run_rowend_sweep(cfg, d_values=(20.0, 15.0, 10.0, 5.0, 3.0, 2.0, 1.0))
    m = {d: out["curves"][d]["y"].mae for d in (20.0, 15.0, 10.0, 2.0)}
    trio = [m[20.0], m[15.0], m[10.0]]
    trio_ratio = max(trio) / min(trio)
    r2 = m[2.0] / m[20.0]
    flag2 = out["flag_rates"][2.0]
    flag1 = out["flag_rates"][1.0]
    ok = trio_ratio <= 1.5 and r2 >= 3.0 and flag2 > 0.5 and flag1 > 0.5
    _report(
        "AC4 row-end shape",
        ok,
        f"far ratio {trio_ratio:.2f}, MAE(2)/MAE(20) {r2:.2f}, flag rate {flag2:.2f}@2m {flag1:.2f}@1m",
    )
    assert trio_ratio <= 1.5
    assert r2 >= 3.0
    assert flag2 > 0.5
    assert flag1 > 0.5


def test_criterion_5_curvature():
    box = Box3.from_ranges((0.0, 12.0), (-5.0, 5.0), (0.0, 4.0))
    cfg = _sweep_config(
        scene=vineyard_preset(row_length=40.0, foliage_density=30.0, clump_amplitude=1.0),
        sensor=SensorSpec(hfov=math.radians(150.0), max_range=10.0, noise_coeff=0.006),
        trajectory=TrajectorySpec(frame_rate=10.0, amplitude=0.15, wavelength=15.0),
        template_cfg=TemplateConfig(resolution=0.1, template_range=box,
                                    row_range=default_row_range(3.0, box)),
        eval_end_margin=21.0,
    )
    radii = (135.0, 200.0, 300.0, 500.0, math.inf)
    out = run_curvature_sweep(cfg, radii=radii, sensor_ranges=(10.0, 20.0))
    ok = True
    details = []
    for rng_m in (10.0, 20.0):
        y = [out[(rng_m, R)]["y"].mae for R in radii]
        th = [out[(rng_m, R)]["theta"].mae for R in radii]
        mono = all(y[i] >= y[i + 1] - 1e-12 for i in range(3)) and all(
            th[i] >= th[i + 1] - 1e-12 for i in range(3)
        )
        within = abs(y[3] - y[4]) <= 0.2 * y[4]
        ok = ok and mono and within
        details.append(f"rng{rng_m:.0f} mono {mono} |d500| {abs(y[3]-y[4]):.4f} vs {0.2*y[4]:.4f}")
    long_worse = out[(20.0, 135.0)]["y"].mae >= out[(10.0, 135.0)]["y"].mae
    ok = ok and long_worse
    _report("AC5 curvature trends", ok, "; ".join(details) + f"; 20m>=10m@135 {long_worse}")
    for rng_m in (10.0, 20.0):
        y = [out[(rng_m, R)]["y"].mae for R in radii]
        th = [out[(rng_m, R)]["theta"].mae for R in radii]
        for i in range(3):
            assert y[i] >= y[i + 1] - 1e-12
            assert th[i] >= th[i + 1] - 1e-12
        assert abs(y[3] - y[4]) <= 0.2 * y[4]
    assert long_worse


def test_criterion_6_voxel_and_data_sweeps():
    box = Box3.from_ranges((0.0, 10.0), (-3.0, 3.0), (0.0, 3.0))
    cfg = _sweep_config(
        trajectory=TrajectorySpec(frame_rate=10.0, amplitude=0.15, wavelength=15.0),
        template_cfg=TemplateConfig(resolution=0.1, template_range=box,
                                    row_range=default_row_range(3.0, box)),
    )
    vox = run_voxel_sweep(cfg, sizes=(0.02, 0.1, 1.0))
    m = {s: vox[s]["y"].mae for s in (0.02, 0.1, 1.0)}
    sizes_ok = m[0.1] <= m[1.0] and m[0.1] <= m[0.02]
    counts = run_template_size_sweep(cfg, counts=(100, 300))
    diff = abs(counts[100]["y"].mae - counts[300]["y"].mae)
    counts_ok = diff <= 0.02
    ok = sizes_ok and counts_ok
    _report(
        "AC6 voxel & data sweeps",
        ok,
        f"MAE 0.02m {m[0.02]:.3f} / 0.1m {m[0.1]:.3f} / 1.0m {m[1.0]:.3f}; |MAE100-MAE300| {diff:.4f}",
    )
    assert m[0.1] <= m[1.0]
    assert m[0.1] <= m[0.02]
    assert diff <= 0.02


def test_criterion_7_baseline_comparison():
    pre = PreprocessConfig(leaf_size=0.05)
    cfg = ExperimentConfig(
        scene=apricot_preset(plant_spacing=2.0, blob_radii=(1.3, 0.6, 1.0), foliage_density=30.0),
        sensor=SensorSpec(hfov=math.radians(150.0), max_range=10.0, noise_coeff=0.002),
        trajectory=TrajectorySpec(frame_rate=10.0, amplitude=0.75, wavelength=7.5),
        mcl_cfg=MclConfig(pre_cfg=pre, n_particles=4000),
        baseline_params=BaselineParams(pre_cfg=pre, line_inlier_tol=0.3),
        template_cfg=TemplateConfig(no_info_frequency=0.003, row_range=default_row_range(5.0)),
        n_template_frames=100,
        n_eval_frames=24,
        eval_end_margin=13.0,
        seed=11,
    )
    out = run_compare(cfg)
    templates = ("template-uniform", "template-pf")
    baselines = ("baseline1", "baseline2", "baseline2-refined")

    def ratio(method):
        t = out["tables"][method]
        return t["large_heading"]["y"].mae / t["small_heading"]["y"].mae

    overall = {m: out["tables"][m]["overall"] for m in templates + baselines}
    accurate = all(
        overall[t][axis].mae <= overall[b][axis].mae
        for t in templates
        for b in baselines
        for axis in ("y", "theta")
    )
    t_ratio = min(ratio(m) for m in templates)
    b_ratio = min(ratio(m) for m in baselines)
    graceful = t_ratio < b_ratio
    ok = accurate and graceful
    _report(
        "AC7 baseline comparison",
        ok,
        f"template y {overall['template-uniform']['y'].mae:.3f} vs b1 "
        f"{overall['baseline1']['y'].mae:.3f} b2 {overall['baseline2']['y'].mae:.3f}; "
        f"degradation ratio {t_ratio:.2f} vs best baseline {b_ratio:.2f}",
    )
    assert accurate
    assert graceful


def test_criterion_8_closed_loop():
    cfg = ExperimentConfig(
        scene=vineyard_preset(row_length=90.0, foliage_density=30.0, clump_amplitude=1.0),
        sensor=SensorSpec(hfov=math.radians(150.0), max_range=8.0, noise_coeff=0.002),
        trajectory=TrajectorySpec(frame_rate=5.0, amplitude=0.15, wavelength=15.0),
        mcl_cfg=MclConfig(pre_cfg=PreprocessConfig(leaf_size=0.05), n_particles=4000),
        n_template_frames=100,
        seed=11,
    )
    out = closed_loop_sim(cfg, y0=0.3)
    offset_mae = out["offset_metrics"].mae
    heading_mae = out["heading_metrics"].mae
    ok = offset_mae <= 0.10 and heading_mae <= 0.04
    _report("AC8 closed loop", ok, f"offset MAE {offset_mae:.3f} m, heading MAE {heading_mae:.4f} rad")
    assert offset_mae <= 0.10
    assert heading_mae <= 0.04


def test_criterion_9_property_suites(vineyard_run, tmp_path):
    cfg, _, template, eval_ds = vineyard_run
    rng = np.random.default_rng(9)
    checks = []

    # rigid-transform round trips
    worst = 0.0
    for _ in range(50):
        y, th, a, b, z = rng.uniform(-0.5, 0.5, 5)
        T = make_pose_transform(y, th, a, b, z)
        pts = rng.uniform(-5, 5, (200, 3))
        back = transform_cloud(invert(T), transform_cloud(T, PointCloud(pts)))
        worst = max(worst, float(np.abs(back.points - pts).max()))
    checks.append(("round-trip", worst < 1e-9, f"max {worst:.2e}"))

    # template frequency bounds and out-of-row fill
    grid = template.grid
    in_bounds = bool(np.all(grid >= 0.0) and np.all(grid <= 1.0))
    tc = template.config
    res = tc.resolution
    lo = tc.template_range.min_corner
    nx, ny, nz = grid.shape
    centers_y = lo[1] + (np.arange(ny) + 0.5) * res
    out_cols = (centers_y < tc.row_range.min_corner[1]) | (centers_y > tc.row_range.max_corner[1])
    out_vals = grid[:, out_cols, :]
    fill_ok = bool(np.all(np.abs(out_vals - template.no_info_frequency) < 1e-6))
    checks.append(("frequency bounds", in_bounds and fill_ok,
                   f"bounds {in_bounds}, out-of-row fill {fill_ok}"))

    # log-likelihood permutation invariance and finiteness
    scorer = _scorer_for(eval_ds.clouds[0], template, cfg.mcl_cfg)
    poses = sample_uniform(cfg.mcl_cfg.prior, 64, 3)
    ll1, _ = scorer.score(poses[:, 0], poses[:, 1])
    perm = rng.permutation(len(eval_ds.clouds[0].points))
    scorer2 = _scorer_for(PointCloud(eval_ds.clouds[0].points[perm]), template, cfg.mcl_cfg)
    ll2, _ = scorer2.score(poses[:, 0], poses[:, 1])
    perm_ok = bool(np.all(np.isfinite(ll1)) and np.allclose(ll1, ll2, atol=1e-6))
    checks.append(("likelihood permutation", perm_ok, f"max diff {np.abs(ll1-ll2).max():.2e}"))

    # systematic resampling multiplicities (pose x-coordinate encodes identity)
    n = 100_000
    w = rng.uniform(0.2, 1.0, n)
    w /= w.sum()
    particles = ParticleSet(np.column_stack([np.arange(n, dtype=float), np.zeros(n)]), w)
    out = resample(particles, seed=4)
    counts = np.bincount(out.poses[:, 0].astype(int), minlength=n)
    mult_err = float(np.abs(counts / n - w).max())
    mult_ok = len(out) == n and mult_err < 0.01
    checks.append(("resampling multiplicities", mult_ok, f"max dev {mult_err:.4f}"))

    # top-fraction covariance is positive semidefinite
    psd_ok = True
    for _ in range(50):
        p = rng.normal(0, 0.3, (500, 2))
        ll = rng.normal(0, 1, 500)
        best = PoseProposal(float(p[0, 0]), float(p[0, 1]))
        cov = covariance_top_fraction(p, ll, best)
        psd_ok = psd_ok and bool(np.all(np.linalg.eigvalsh(cov) >= -1e-12))
    checks.append(("covariance PSD", psd_ok, "50 random particle sets"))

    # determinism: identical seeds give byte-identical CSV output
    sub_clouds = eval_ds.clouds[:5]
    sub_truth = eval_ds.local_truth[:5]
    for tag in ("a", "b"):
        res = evaluate_frames(sub_clouds, sub_truth, template, cfg, method="template-uniform")
        write_results_csv(tmp_path / f"{tag}.csv", res)
    det_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    checks.append(("determinism", det_ok, "byte-identical CSVs"))

    ok = all(c[1] for c in checks)
    _report("AC9 property suites", ok, "; ".join(f"{c[0]} {'ok' if c[1] else 'FAIL'}" for c in checks))
    for name, passed, detail in checks:
        assert passed, f"{name}: {detail}"
