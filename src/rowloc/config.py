"""Plain-text key=value experiment configuration.

One `key = value` per line; '#' starts a comment.  Keys use dotted
prefixes per sub-spec (scene., sensor., trajectory., template., mcl.,
controller., run.); all values in SI units.  Unknown keys are an error
so typos do not silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .baselines import BaselineParams
from .geometry import Box3, PreprocessConfig
from .harness import METHODS, ControllerGains, ExperimentConfig
from .mcl import MclConfig, UniformPrior
from .synth import OrchardSpec, SensorSpec, TrajectorySpec, apricot_preset, vineyard_preset
from .template import TemplateConfig, default_row_range


class ConfigError(ValueError):
    pass


def parse_kv_file(path) -> dict[str, str]:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _f(v: str) -> float:
    if v.lower() in ("inf", "infinity"):
        return math.inf
    return float(v)


def _box(v: str) -> Box3:
    parts = [float(p) for p in v.split()]
    if len(parts) != 6:
        raise ConfigError(f"box needs 6 numbers (xmin xmax ymin ymax zmin zmax), got {v!r}")
    return Box3.from_ranges(parts[0:2], parts[2:4], parts[4:6])


def experiment_config_from_kv(kv: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key=value pairs."""
    kv = dict(kv)

    def pop(key, default=None):
        return kv.pop(key, default)

    def update(obj, prefix, fields):
        """obj with each `prefix.name` key of `fields` ({name: converter})
        popped, converted and set, in the order of `fields`."""
        for name, conv in fields.items():
            v = pop(f"{prefix}.{name}")
            if v is not None:
                obj = replace(obj, **{name: conv(v)})
        return obj

    preset = pop("scene.preset", "vineyard")
    if preset == "vineyard":
        scene = vineyard_preset()
    elif preset == "apricot":
        scene = apricot_preset()
    else:
        raise ConfigError(f"unknown scene.preset {preset!r}")
    scene = update(scene, "scene", {
        "row_spacing": _f, "plant_spacing": _f, "row_length": _f, "profile": str,
        "canopy_height": _f, "canopy_thickness": _f, "foliage_density": _f,
        "ground_density": _f, "trunk_height": _f,
    })
    sensor = update(SensorSpec(), "sensor", dict.fromkeys(
        ("hfov", "vfov", "max_range", "noise_coeff", "noise_cap_fraction", "mount_height"), _f))
    traj = update(TrajectorySpec(), "trajectory", dict.fromkeys(
        ("speed", "frame_rate", "amplitude", "wavelength", "vehicle_half_width"), _f))

    tpl = TemplateConfig(row_range=default_row_range(scene.row_spacing))
    v = pop("template.resolution")
    if v is not None:
        tpl = replace(tpl, resolution=_f(v))
    v = pop("template.range")
    if v is not None:
        box = _box(v)
        tpl = replace(tpl, template_range=box, row_range=default_row_range(scene.row_spacing, box))
    v = pop("template.row_range")
    if v is not None:
        tpl = replace(tpl, row_range=_box(v))
    v = pop("template.no_info_frequency")
    if v is not None:
        tpl = replace(tpl, no_info_frequency=None if v == "auto" else _f(v))

    prior = update(UniformPrior(), "mcl.prior",
                   dict.fromkeys(("y_min", "y_max", "theta_min", "theta_max"), _f))
    pre = PreprocessConfig()
    v = pop("preprocess.leaf_size")
    if v is not None:
        pre = replace(pre, leaf_size=_f(v))
    mcl = update(MclConfig(prior=prior, pre_cfg=pre), "mcl", {
        "n_particles": int, "p_floor": _f, "low_conf_std_y": _f, "low_conf_std_theta": _f,
    })
    gains = update(ControllerGains(), "controller",
                   dict.fromkeys(("k_y", "k_theta", "max_steer_rate"), _f))

    # one leaf for every method, so baselines and template methods see the
    # same preprocessed frame
    cfg = ExperimentConfig(
        scene=scene, sensor=sensor, trajectory=traj, template_cfg=tpl, mcl_cfg=mcl,
        baseline_params=BaselineParams(pre_cfg=pre), gains=gains,
    )
    cfg = update(cfg, "run",
                 {"method": str, "n_template_frames": int, "n_eval_frames": int, "seed": int})
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown run.method {cfg.method!r}; known methods: {', '.join(METHODS)}")

    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    return cfg


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_kv(parse_kv_file(path))
