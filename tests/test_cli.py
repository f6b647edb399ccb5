import json
import math
from types import SimpleNamespace

import pytest

from rowloc import __version__, cloudio, harness
from rowloc.cli import main
from rowloc.config import load_experiment_config
from rowloc.synth import generate_scene
from rowloc.template import load_template

CFG_TEXT = """
# small, fast experiment for end-to-end checks
scene.preset = vineyard
scene.row_length = 8
scene.foliage_density = 30
sensor.hfov = 2.618   # ~150 degrees
sensor.max_range = 8
sensor.noise_coeff = 0.001
trajectory.frame_rate = 4
trajectory.amplitude = 0.15
trajectory.wavelength = 15
preprocess.leaf_size = 0.08
mcl.n_particles = 2000
run.n_template_frames = 20
run.n_eval_frames = 4
run.seed = 3
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    p.write_text(CFG_TEXT)
    return p


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def test_gen_build_localize_pipeline(cfg_file, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-scene", "--config", str(cfg_file), "--out", str(data_dir)]) == 0
    gt_lines = (data_dir / "ground_truth.csv").read_text().splitlines()
    assert gt_lines[0] == "frame,x,y,theta,alpha,beta,z"
    n_frames = len(gt_lines) - 1
    assert n_frames > 0
    assert (data_dir / "frame_00000.pc3d").exists()
    assert (data_dir / f"frame_{n_frames - 1:05d}.pc3d").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["runner"] == "gen_scene"
    assert manifest["n_frames"] == n_frames

    tpl_dir = tmp_path / "tpl"
    assert main(
        [
            "build-template",
            "--config",
            str(cfg_file),
            "--dataset",
            str(data_dir),
            "--out",
            str(tpl_dir),
        ]
    ) == 0
    assert (tpl_dir / "template.rstp").exists()

    loc_dir = tmp_path / "loc"
    assert main(
        [
            "localize",
            "--config",
            str(cfg_file),
            "--dataset",
            str(data_dir),
            "--template",
            str(tpl_dir / "template.rstp"),
            "--out",
            str(loc_dir),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "lateral MAE" in out
    frames = (loc_dir / "frames.csv").read_text().splitlines()
    assert len(frames) == 1 + n_frames
    # estimate columns parse as floats
    first = frames[1].split(",")
    float(first[1]), float(first[2]), float(first[7]), float(first[8])


def test_gen_scene_ground_truth_bytes(cfg_file, tmp_path):
    # the harness CSV writer gives the bytes of a per-row repr() format
    assert main(["gen-scene", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    ds = harness.render_run(load_experiment_config(cfg_file), harness.ACCURACY_TAG)
    want = "frame,x,y,theta,alpha,beta,z\n" + "".join(
        f"{i},{float(pose.x)!r},{float(truth[0])!r},{float(truth[1])!r},"
        f"{float(pose.roll)!r},{float(pose.pitch)!r},{float(pose.z)!r}\n"
        for i, (pose, truth) in enumerate(zip(ds.poses, ds.local_truth))
    )
    assert len(ds.poses) > 1
    assert (tmp_path / "ground_truth.csv").read_bytes() == want.encode()


def test_eval_accuracy_subcommand(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "acc"
    assert main(["eval-accuracy", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert "lateral MAE" in capsys.readouterr().out
    assert (out_dir / "frames.csv").exists()
    assert (out_dir / "metrics.csv").exists()
    assert json.loads((out_dir / "manifest.json").read_text())["runner"] == "run_accuracy"


def test_eval_voxel_subcommand(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "vox"
    assert main(
        ["eval-voxel", "--config", str(cfg_file), "--out", str(out_dir), "--sizes", "0.2"]
    ) == 0
    assert "voxel" in capsys.readouterr().out
    table = (out_dir / "table.csv").read_text().splitlines()
    assert table[0] == "voxel_size,y_mae,theta_mae,n_voxels,file_size_bytes"
    assert len(table) == 2


def test_seed_flag_overrides_config(cfg_file, tmp_path):
    out_dir = tmp_path / "seeded"
    assert main(
        ["gen-scene", "--config", str(cfg_file), "--seed", "42", "--out", str(out_dir)]
    ) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 42


@pytest.fixture(scope="module")
def generated_run(cfg_file, tmp_path_factory):
    """A gen-scene dataset and the template built from it."""
    root = tmp_path_factory.mktemp("run")
    assert main(["gen-scene", "--config", str(cfg_file), "--out", str(root / "data")]) == 0
    assert main(["build-template", "--config", str(cfg_file), "--dataset", str(root / "data"),
                 "--out", str(root / "tpl")]) == 0
    return root / "data", root / "tpl" / "template.rstp"


@pytest.mark.parametrize("method", ["template-pf", "baseline1"])
def test_localize_runs_the_method_it_reports(cfg_file, generated_run, tmp_path, method):
    data_dir, tpl_path = generated_run
    out_dir = tmp_path / "loc"
    assert main(["localize", "--config", str(cfg_file), "--dataset", str(data_dir),
                 "--template", str(tpl_path), "--method", method, "--out", str(out_dir)]) == 0

    # reference: the harness on the run rendered in memory, with the clouds
    # as stored on disk (float32) and odometry from the true poses
    cfg = load_experiment_config(cfg_file)
    scene = generate_scene(cfg.scene, harness.derive_seed(cfg.seed, 10))
    ds = harness.make_dataset(scene, cfg.trajectory, cfg.sensor, harness.derive_seed(cfg.seed, 11))
    clouds = [cloudio.load_cloud_binary(data_dir / f"frame_{i:05d}.pc3d")
              for i in range(len(ds.clouds))]
    expected = harness.evaluate_frames(
        clouds, ds.local_truth, load_template(tpl_path), cfg, method=method,
        odometry=harness._dataset_odometry(ds, cfg),
    )
    harness.write_results_csv(tmp_path / "expected.csv", expected)
    got = (out_dir / "frames.csv").read_text()
    assert got == (tmp_path / "expected.csv").read_text()
    assert all(line.endswith("," + method) for line in got.splitlines()[1:])


def test_unknown_method_is_rejected(cfg_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval-accuracy", "--config", str(cfg_file), "--method", "template-typo",
              "--out", str(tmp_path)])
    assert exc.value.code != 0


def test_sweep_rejects_a_method_it_cannot_run(cfg_file, tmp_path):
    out_dir = tmp_path / "gaps"
    with pytest.raises(SystemExit) as exc:
        main(["eval-gaps", "--config", str(cfg_file), "--method", "template-pf",
              "--out", str(out_dir)])
    assert exc.value.code != 0
    assert "template-uniform, template-grid" in str(exc.value.code)
    assert not out_dir.exists()


def test_method_flag_only_where_it_is_read(cfg_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-compare", "--config", str(cfg_file), "--method", "baseline1",
              "--out", str(tmp_path / "cmp")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_closed_loop_rejects_a_method_it_cannot_run(cfg_file, tmp_path):
    out_dir = tmp_path / "loop"
    with pytest.raises(SystemExit) as exc:
        main(["closed-loop", "--config", str(cfg_file), "--method", "baseline1",
              "--out", str(out_dir)])
    assert "template-uniform, template-grid" in str(exc.value.code)
    assert not out_dir.exists()


# (command, harness runner, its output, value flags, the keywords they pass)
SWEEP_COMMANDS = [
    ("eval-gaps", "run_gap_sweep", {"curves": {}}, ["--n-values", "0,8", "--draws", "3"],
     {"n_values": (0, 8), "n_draws": 3}),
    ("eval-rowend", "run_rowend_sweep", {"curves": {}, "flag_rates": {}},
     ["--distances", "5,1.5"], {"d_values": (5.0, 1.5)}),
    ("eval-curvature", "run_curvature_sweep", {}, ["--radii", "200,inf", "--ranges", "10"],
     {"radii": (200.0, math.inf), "sensor_ranges": (10.0,)}),
    ("eval-voxel", "run_voxel_sweep", {}, ["--sizes", "0.2"], {"sizes": (0.2,)}),
    ("eval-template-size", "run_template_size_sweep", {}, ["--counts", "5,10"],
     {"counts": (5, 10)}),
    ("closed-loop", "closed_loop_sim",
     {"offset_metrics": SimpleNamespace(mae=0.0), "heading_metrics": SimpleNamespace(mae=0.0)},
     ["--y0", "-0.2"], {"y0": -0.2}),
]


@pytest.mark.parametrize("command, runner, output, flags, passed", SWEEP_COMMANDS,
                         ids=[c[0] for c in SWEEP_COMMANDS])
def test_a_sweep_flag_left_out_leaves_the_runner_its_default(
        monkeypatch, tmp_path, command, runner, output, flags, passed):
    """Each sweep default has one home, the runner's signature: a value
    flag left out passes no keyword, and one given passes its value."""
    calls = []

    def recorded(cfg, **kwargs):
        calls.append(kwargs)
        return output

    monkeypatch.setattr(harness, runner, recorded)
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == 0
    assert main([command, "--out", str(out), *flags]) == 0
    assert calls == [{"out_dir": out}, {"out_dir": out, **passed}]
