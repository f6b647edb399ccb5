import math
from dataclasses import replace

import numpy as np
import pytest

from rowloc.config import (
    ConfigError,
    experiment_config_from_kv,
    load_experiment_config,
    parse_kv_file,
)
from rowloc.synth import apricot_preset, vineyard_preset
from rowloc.template import default_row_range


def test_parse_kv_file_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(
        "# a comment line\n"
        "\n"
        "scene.preset = apricot   # trailing comment\n"
        "  run.seed=7  \n"
    )
    assert parse_kv_file(p) == {"scene.preset": "apricot", "run.seed": "7"}


def test_parse_kv_file_rejects_missing_equals(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scene.preset vineyard\n")
    with pytest.raises(ConfigError):
        parse_kv_file(p)


def test_parse_kv_file_rejects_duplicate_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("run.seed = 1\nrun.seed = 2\n")
    with pytest.raises(ConfigError):
        parse_kv_file(p)


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown config keys"):
        experiment_config_from_kv({"scene.typo_field": "1.0"})


def test_unknown_preset_is_an_error():
    with pytest.raises(ConfigError):
        experiment_config_from_kv({"scene.preset": "kiwi"})


def test_unknown_method_is_an_error():
    with pytest.raises(ConfigError, match="unknown run.method 'template-typo'.*template-grid"):
        experiment_config_from_kv({"run.method": "template-typo"})
    assert experiment_config_from_kv({"run.method": "baseline2"}).method == "baseline2"


def test_defaults_are_vineyard_preset():
    cfg = experiment_config_from_kv({})
    assert cfg.scene == vineyard_preset()


def test_preset_selection_and_scalar_overrides():
    cfg = experiment_config_from_kv(
        {
            "scene.preset": "apricot",
            "scene.row_length": "42.5",
            "sensor.max_range": "9.0",
            "trajectory.amplitude": "0.3",
            "mcl.n_particles": "1234",
            "run.seed": "99",
        }
    )
    assert cfg.scene == type(cfg.scene)(
        **{**apricot_preset().__dict__, "row_length": 42.5}
    )
    assert cfg.sensor.max_range == 9.0
    assert cfg.trajectory.amplitude == 0.3
    assert cfg.mcl_cfg.n_particles == 1234
    assert cfg.seed == 99


def test_box_parsing_sets_template_and_row_range():
    cfg = experiment_config_from_kv({"template.range": "0 8 -2 2 0 3"})
    box = cfg.template_cfg.template_range
    np.testing.assert_allclose(box.min_corner, [0.0, -2.0, 0.0])
    np.testing.assert_allclose(box.max_corner, [8.0, 2.0, 3.0])
    # row_range is rederived from the scene spacing inside the new box
    expect = default_row_range(cfg.scene.row_spacing, box)
    np.testing.assert_allclose(cfg.template_cfg.row_range.min_corner, expect.min_corner)
    np.testing.assert_allclose(cfg.template_cfg.row_range.max_corner, expect.max_corner)


def test_box_needs_six_numbers():
    with pytest.raises(ConfigError):
        experiment_config_from_kv({"template.range": "0 8 -2 2"})


def test_inf_values_parse():
    cfg = experiment_config_from_kv({"sensor.max_range": "inf"})
    assert cfg.sensor.max_range == math.inf


def test_non_finite_leaf_size_fails_at_load():
    # a NaN leaf would collapse every frame to one voxel
    with pytest.raises(ValueError, match="leaf size"):
        experiment_config_from_kv({"preprocess.leaf_size": "nan"})


@pytest.mark.parametrize("key, value, match", [
    ("mcl.n_particles", "0", "n_particles"),
    ("mcl.p_floor", "nan", "p_floor"),
    ("mcl.p_floor", "0", "p_floor"),
    ("mcl.p_floor", "inf", "p_floor"),
    ("mcl.p_floor", "1.5", "p_floor"),
    ("mcl.prior.y_min", "nan", "prior bounds"),
    ("mcl.prior.theta_max", "inf", "prior bounds"),
    ("mcl.prior.theta_min", "-inf", "prior bounds"),
])
def test_a_bad_estimator_value_fails_at_load(key, value, match):
    # each used to load and fail, or give NaN scores, only at the first frame
    with pytest.raises(ValueError, match=match):
        experiment_config_from_kv({key: value})


@pytest.mark.parametrize("key, value", [
    ("run.n_template_frames", "0"),
    ("run.n_eval_frames", "0"),
    ("run.n_eval_frames", "-2"),
])
def test_a_bad_frame_count_fails_at_load(key, value):
    # each used to fail only after the scene was rendered and, for the
    # eval count, the template built
    with pytest.raises(ValueError, match=key.split(".")[1]):
        experiment_config_from_kv({key: value})


@pytest.mark.parametrize("margin", [-1.0, math.nan, math.inf])
def test_a_bad_eval_end_margin_fails_when_the_config_is_made(margin):
    with pytest.raises(ValueError, match="eval_end_margin"):
        replace(experiment_config_from_kv({}), eval_end_margin=margin)
    assert replace(experiment_config_from_kv({}), eval_end_margin=0.0).eval_end_margin == 0.0


def test_leaf_size_reaches_the_baselines_too():
    cfg = experiment_config_from_kv({"preprocess.leaf_size": "0.1"})
    assert cfg.mcl_cfg.pre_cfg.leaf_size == 0.1
    assert cfg.baseline_params.pre_cfg == cfg.mcl_cfg.pre_cfg
    default = experiment_config_from_kv({})
    assert default.baseline_params.pre_cfg == default.mcl_cfg.pre_cfg


def test_no_info_frequency_auto_and_fixed():
    auto = experiment_config_from_kv({"template.no_info_frequency": "auto"})
    assert auto.template_cfg.no_info_frequency is None
    fixed = experiment_config_from_kv({"template.no_info_frequency": "0.03"})
    assert fixed.template_cfg.no_info_frequency == 0.03


def test_load_experiment_config_round_trip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("scene.preset = vineyard\nrun.n_eval_frames = 5\npreprocess.leaf_size = 0.07\n")
    cfg = load_experiment_config(p)
    assert cfg.n_eval_frames == 5
    assert cfg.mcl_cfg.pre_cfg.leaf_size == 0.07
