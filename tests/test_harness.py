import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rowloc.geometry import PointCloud, PreprocessConfig
from rowloc.harness import (
    ALL_METHODS,
    ControllerGains,
    ExperimentConfig,
    closed_loop_sim,
    degrade_in_template_frame,
    derive_seed,
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
from rowloc.mcl import MclConfig
from rowloc.synth import SensorSpec, TrajectorySpec, generate_scene, vineyard_preset


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
    ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 11), n_frames=3)
    out = degrade_in_template_frame(ds, 1, lambda c: c)
    assert out.frame == ds.clouds[1].frame
    np.testing.assert_allclose(out.points, ds.clouds[1].points, atol=1e-9)


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


def test_run_accuracy_cutoff_ablation(cfg, tmp_path):
    out = run_accuracy(cfg, out_dir=tmp_path, cutoff_ablation=True)
    assert "no_cutoff_results" in out and "no_cutoff_metrics" in out
    assert len(out["no_cutoff_results"]) == cfg.n_eval_frames
    assert (tmp_path / "frames_no_cutoff.csv").exists()
    assert (tmp_path / "metrics_no_cutoff.csv").exists()


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
    assert (tmp_path / "mae_y.csv").exists()
    with pytest.raises(ValueError):
        run_cross_template_matrix(cfg, k_rows=1)


def test_closed_loop_converges_to_centerline(cfg, tmp_path):
    scene = generate_scene(cfg.scene, derive_seed(cfg.seed, 90))
    build_ds = make_dataset(scene, cfg.trajectory, cfg.sensor, derive_seed(cfg.seed, 91))
    template = template_from_dataset(build_ds, cfg)
    out = closed_loop_sim(cfg, y0=0.3, template=template, out_dir=tmp_path)
    log = out["log"]
    assert len(log) > 0
    assert log[-1][1] >= cfg.scene.row_length - cfg.trajectory.speed / cfg.trajectory.frame_rate
    tail_offsets = [abs(row[2]) for row in log[-5:]]
    assert max(tail_offsets) < 0.1
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x,y,theta,y_est,theta_est,omega"
    assert len(traj) == 1 + len(log)
