import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rowloc import geometry, harness, mcl
from rowloc.baselines import BaselineParams
from rowloc.geometry import (
    Box3,
    DegenerateInputError,
    PointCloud,
    cutoff_filter,
    PreprocessConfig,
    preprocess,
)
from rowloc.harness import (
    ALL_METHODS,
    ControllerGains,
    ExperimentConfig,
    closed_loop_sim,
    comparison_prefilter_box,
    degrade_in_template_frame,
    derive_seed,
    evaluate_frames,
    make_dataset,
    run_accuracy,
    run_compare,
    run_cross_template_matrix,
    run_curvature_sweep,
    run_gap_sweep,
    run_rowend_sweep,
    run_template_size_sweep,
    run_voxel_sweep,
    template_from_dataset,
)
from rowloc.measurement import PoseScorer
from rowloc.mcl import FLAG_EMPTY_MEASUREMENT, MclConfig, localize_grid
from rowloc.synth import SensorSpec, TrajectorySpec, generate_scene, vineyard_preset
from rowloc.template import TemplateConfig, default_row_range

from conftest import grid_poses


def _fast_config() -> ExperimentConfig:
    return ExperimentConfig(
        scene=vineyard_preset(row_length=20.0, foliage_density=30.0, clump_amplitude=1.0),
        sensor=SensorSpec(hfov=math.radians(150.0), max_range=8.0, noise_coeff=0.001),
        trajectory=TrajectorySpec(frame_rate=6.0, amplitude=0.15, wavelength=15.0),
        mcl_cfg=MclConfig(pre_cfg=PreprocessConfig(leaf_size=0.08), n_particles=4000),
        n_template_frames=60,
        n_eval_frames=6,
        seed=5,
    )


@pytest.fixture(scope="module")
def cfg():
    return _fast_config()


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 1, 3)
    assert derive_seed(0, 1, 2) != derive_seed(1, 1, 2)
    s = derive_seed(12345, 6, 7)
    assert 0 <= s < 2**32


def test_controller_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(k_y=-0.1)
    with pytest.raises(ValueError):
        ControllerGains(max_steer_rate=0.0)


def test_degrade_in_template_frame_identity_round_trip(cfg):
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 10))
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 11))
    i = (len(ds.clouds) - 1) // 2  # a frame mid-row
    out = degrade_in_template_frame(ds, i, lambda c: c)
    np.testing.assert_allclose(out.points, ds.clouds[i].points, atol=1e-9)


def test_run_accuracy_outputs_and_determinism(cfg, tmp_path):
    out1 = run_accuracy(cfg, out_dir=tmp_path / "a")
    assert len(out1["results"]) == cfg.n_eval_frames
    m = out1["metrics"]
    assert math.isfinite(m["y"].mae) and math.isfinite(m["theta"].mae)
    assert m["y"].mae < 0.2
    frames = (tmp_path / "a" / "frames.csv").read_text().splitlines()
    assert frames[0].startswith("frame,y_est")
    assert len(frames) == 1 + cfg.n_eval_frames
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["runner"] == "run_accuracy"
    assert manifest["seed"] == cfg.seed

    run_accuracy(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "frames.csv").read_bytes() == (tmp_path / "b" / "frames.csv").read_bytes()
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_grid_search_pose_is_the_best_scoring_cell():
    # the row edges y = +-1.5 cut through the voxels of a grid from y = -3.07
    box = Box3.from_ranges((0.0, 9.95), (-3.07, 3.0), (0.0, 2.97))
    tpl_cfg = TemplateConfig(resolution=0.1, template_range=box, row_range=default_row_range(3.0, box))
    cfg = replace(_fast_config(), seed=7, n_eval_frames=15, template_cfg=tpl_cfg)
    ds = harness.render_run(cfg, harness.ACCURACY_TAG)
    template = template_from_dataset(ds, cfg)
    poses = grid_poses(cfg.mcl_cfg, mcl.GRID_Y_STEP, mcl.GRID_THETA_STEP)
    n_scored = 0
    for cloud in harness._eval_subset(ds, cfg).clouds:
        est = localize_grid(cloud, template, cfg.mcl_cfg)
        try:
            frame = preprocess(cloud, cfg.mcl_cfg.pre_cfg)
        except DegenerateInputError:
            # no usable ground: grid search flags the frame
            assert FLAG_EMPTY_MEASUREMENT in est.flags
            continue
        ll, _ = PoseScorer(frame, template, cfg.mcl_cfg.p_floor).score(poses[:, 0], poses[:, 1])
        best = np.argmax(ll)
        assert (poses[best, 0], poses[best, 1]) == (est.pose.y, est.pose.theta)
        n_scored += 1
    assert n_scored == 14


def test_run_compare_covers_all_methods(cfg, tmp_path):
    out = run_compare(cfg, out_dir=tmp_path)
    assert set(out["results"]) == set(ALL_METHODS)
    for method, res in out["results"].items():
        assert len(res) == cfg.n_eval_frames
        assert all(r.method == method for r in res)
        assert (tmp_path / f"frames_{method}.csv").exists()
        assert (tmp_path / f"accumulated_y_{method}.csv").exists()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,regime,axis,mae,sd,p95,n"
    assert len(summary) > len(ALL_METHODS)


def test_run_compare_runs_frame_by_frame_with_evaluate_frames_rows(cfg, monkeypatch):
    # the baselines preprocess with the template methods' leaf, and the
    # evaluated frames stop short of the row end, where the filtered cloud
    # is empty (a frame that fails preprocessing is retried by each method)
    cfg = replace(cfg, baseline_params=BaselineParams(pre_cfg=cfg.mcl_cfg.pre_cfg),
                  eval_end_margin=3.0)
    ransac_calls = []
    original = geometry.ransac_ground_plane
    monkeypatch.setattr(geometry, "ransac_ground_plane",
                        lambda *a, **k: ransac_calls.append(1) or original(*a, **k))
    monkeypatch.setattr(geometry, "_last_call", None)
    out = run_compare(cfg)
    ds = harness.render_run(cfg, 80)
    eval_ds = harness._eval_subset(ds, cfg)
    assert len(ransac_calls) == cfg.n_template_frames + len(eval_ds.clouds)

    box = comparison_prefilter_box()
    clouds = [degrade_in_template_frame(eval_ds, i, lambda c: cutoff_filter(c, box))
              for i in range(len(eval_ds.clouds))]
    template = harness.template_from_dataset(ds, cfg)
    odo = harness._dataset_odometry(eval_ds, cfg)
    for i, method in enumerate(ALL_METHODS):
        expected = evaluate_frames(clouds, eval_ds.local_truth, template, cfg, method=method,
                                   seed_tag=100 + i, odometry=odo)
        assert repr(out["results"][method]) == repr(expected)


@pytest.mark.parametrize("method", ["template-uniform", "template-pf", "baseline2"])
def test_evaluate_frames_checks_lengths_before_any_frame(cfg, monkeypatch, method):
    def localized(*a, **k):
        raise AssertionError("a frame was localized")

    monkeypatch.setattr(harness, "_localize_frame", localized)
    monkeypatch.setattr(harness, "localize_pf", localized)
    clouds = [PointCloud(np.zeros((5, 3)))] * 3
    odo = [mcl.OdometryDelta(np.zeros(3), cfg.odometry_sigma)] * 2
    with pytest.raises(ValueError, match="truth"):
        evaluate_frames(clouds, np.zeros((2, 2)), object(), cfg, method=method, odometry=odo)
    if method == "template-pf":
        with pytest.raises(ValueError, match="odometry"):
            evaluate_frames(clouds, np.zeros((3, 2)), object(), cfg, method=method,
                            odometry=odo[:1])


def test_run_gap_sweep_smoke(cfg, tmp_path):
    out = run_gap_sweep(cfg, n_values=(0, 4), n_draws=2, out_dir=tmp_path)
    assert set(out["curves"]) == {0, 4}
    assert len(out["rows"]) == 4
    for c in out["curves"].values():
        assert math.isfinite(c["y"].mae) and math.isfinite(c["std_y_mean"])
    assert (tmp_path / "draws.csv").exists() and (tmp_path / "curves.csv").exists()


def test_run_rowend_sweep_smoke(cfg, tmp_path):
    out = run_rowend_sweep(cfg, d_values=(20.0, 2.0), out_dir=tmp_path)
    assert set(out["flag_rates"]) == {20.0, 2.0}
    assert all(0.0 <= r <= 1.0 for r in out["flag_rates"].values())
    assert set(out["curves"]) == {20.0, 2.0}
    assert (tmp_path / "flag_rates.csv").exists()


def test_run_curvature_sweep_smoke(cfg, tmp_path):
    out = run_curvature_sweep(cfg, radii=(300.0, math.inf), sensor_ranges=(8.0,), out_dir=tmp_path)
    assert set(out) == {(8.0, 300.0), (8.0, math.inf)}
    for m in out.values():
        assert math.isfinite(m["y"].mae)
    assert (tmp_path / "curves.csv").exists()


def test_run_voxel_sweep_reports_grid_cost(cfg, tmp_path):
    out = run_voxel_sweep(cfg, sizes=(0.1, 0.2), out_dir=tmp_path)
    assert set(out) == {0.1, 0.2}
    for m in out.values():
        assert m["file_size"] == 136 + 4 * m["n_voxels"]
    assert out[0.1]["n_voxels"] > out[0.2]["n_voxels"]
    assert (tmp_path / "table.csv").exists()


def test_run_template_size_sweep_smoke(cfg, tmp_path):
    out = run_template_size_sweep(cfg, counts=(5, 40), out_dir=tmp_path)
    assert set(out) == {5, 40}
    for m in out.values():
        assert math.isfinite(m["y"].mae)
    assert (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("runner, values, keys", [
    (run_rowend_sweep, (0.28, 0.29), [(42, 28), (42, 29)]),  # int(0.29 * 100) == 28
    (run_voxel_sweep, (1.0, 1.001), [(62, 1000), (62, 1001)]),  # int(1.001 * 1000) == 1000
])
def test_sweep_seed_keys_round_the_swept_value(cfg, monkeypatch, runner, values, keys):
    seen = []
    monkeypatch.setattr(harness, "render_run", lambda *a: None)
    monkeypatch.setattr(harness, "template_from_dataset", lambda *a: None)
    monkeypatch.setattr(harness, "_eval_subset", lambda *a: None)
    monkeypatch.setattr(harness, "_frames", lambda cfg, ds, key, *a: seen.append(key))
    monkeypatch.setattr(harness, "_sweep", lambda cfg, cases: ([*cases], {})[1])  # draw every case
    runner(cfg, values)
    assert seen == keys


@pytest.mark.parametrize("runner", [run_gap_sweep, run_rowend_sweep, run_curvature_sweep,
                                    run_voxel_sweep, run_template_size_sweep])
@pytest.mark.parametrize("method", ["baseline1", "template-pf"])
def test_sweeps_reject_methods_they_cannot_run(cfg, tmp_path, runner, method):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with pytest.raises(ValueError, match="template-uniform, template-grid"):
        runner(replace(cfg, method=method), out_dir=out_dir)
    assert list(out_dir.iterdir()) == []


def test_run_cross_template_matrix(cfg, tmp_path):
    out = run_cross_template_matrix(cfg, k_rows=2, out_dir=tmp_path)
    assert out["mae_y"].shape == (2, 2)
    assert out["mae_theta"].shape == (2, 2)
    assert np.all(np.isfinite(out["mae_y"]))
    for name in ("mae_y", "mae_theta"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "template_row,eval_row_0,eval_row_1"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0", "1"]
        back = np.array([[float(v) for v in row[1:]] for row in rows])
        assert back.tobytes() == out[name].tobytes()
    with pytest.raises(ValueError):
        run_cross_template_matrix(cfg, k_rows=1)


def test_closed_loop_converges_to_centerline(cfg, tmp_path):
    out = closed_loop_sim(cfg, y0=0.3, out_dir=tmp_path)
    log = out["log"]
    assert len(log) > 0
    assert log[-1][1] >= cfg.scene.row_length - cfg.trajectory.speed / cfg.trajectory.frame_rate
    tail_offsets = [abs(row[2]) for row in log[-5:]]
    assert max(tail_offsets) < 0.1
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x,y,theta,y_est,theta_est,omega"
    assert len(traj) == 1 + len(log)


def test_closed_loop_runs_the_method_it_reports(cfg, tmp_path, monkeypatch):
    calls = []
    original = harness.localize_grid
    monkeypatch.setattr(harness, "localize_grid", lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr(harness, "localize_uniform", None)  # calling it fails the test
    out = closed_loop_sim(replace(cfg, method="template-grid"), out_dir=tmp_path)
    assert len(calls) == len(out["log"]) > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["method"] == "template-grid"


@pytest.mark.parametrize("method", ["baseline1", "template-pf"])
def test_closed_loop_rejects_methods_it_cannot_run(cfg, tmp_path, method):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with pytest.raises(ValueError, match="template-uniform, template-grid"):
        closed_loop_sim(replace(cfg, method=method), out_dir=out_dir)
    assert list(out_dir.iterdir()) == []
