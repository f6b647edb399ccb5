"""Command-line experiment runner.

Subcommands map one-to-one onto the harness runners plus dataset and
template utilities.  All outputs are CSV files and a JSON run manifest
in the --out directory.  A sweep's value flag that is left out passes
no value, so the runner's own default applies.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, cloudio, harness
from .config import load_experiment_config
from .geometry import Pose6D
from .harness import ExperimentConfig
from .template import load_template, save_template


def _base_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "method", None):
        cfg = replace(cfg, method=args.method)
    return cfg


def _sweep_config(args) -> ExperimentConfig:
    """_base_config for the eval-* sweeps and closed-loop; exits with an
    error on a method they cannot run."""
    cfg = _base_config(args)
    try:
        harness.check_sweep_method(cfg.method)
    except ValueError as e:
        raise SystemExit(f"rowloc: error: {e}") from None
    return cfg


def _add_common(p: argparse.ArgumentParser, method=False):
    p.add_argument("--config", type=Path, help="key=value experiment config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if method:
        p.add_argument("--method", choices=harness.METHODS, help="localization method selector")


def cmd_gen_scene(args):
    cfg = _base_config(args)
    ds = harness.render_run(cfg, harness.ACCURACY_TAG)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(i, float(pose.x), float(truth[0]), float(truth[1]), float(pose.roll),
             float(pose.pitch), float(pose.z))
            for i, (pose, truth) in enumerate(zip(ds.poses, ds.local_truth))]
    harness._write_csv(out / "ground_truth.csv", "frame,x,y,theta,alpha,beta,z", rows)
    for i, cloud in enumerate(ds.clouds):
        cloudio.save_cloud_binary(cloud, out / f"frame_{i:05d}.pc3d")
    harness.write_manifest(out, cfg, "gen_scene", {"n_frames": len(ds.clouds)})
    print(f"wrote {len(ds.clouds)} frames to {out}")


def _load_generated(dataset_dir: Path) -> harness.Dataset:
    """A gen-scene directory as a Dataset (straight row: {R} pose = local truth)."""
    clouds, poses = [], []
    lines = (dataset_dir / "ground_truth.csv").read_text().splitlines()[1:]
    for line in lines:
        i, x, y, theta, alpha, beta, z = line.split(",")
        clouds.append(cloudio.load_cloud_binary(dataset_dir / f"frame_{int(i):05d}.pc3d"))
        poses.append(Pose6D(x=float(x), y=float(y), z=float(z),
                            roll=float(alpha), pitch=float(beta), yaw=float(theta)))
    truth = np.array([(p.y, p.yaw) for p in poses]).reshape(-1, 2)
    return harness.Dataset(clouds, poses, truth)


def cmd_build_template(args):
    cfg = _base_config(args)
    template = harness.template_from_dataset(_load_generated(Path(args.dataset)), cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_template(template, out / "template.rstp")
    harness.write_manifest(out, cfg, "build_template", {"n_frames": template.n_frames})
    print(f"built template from {template.n_frames} frames -> {out / 'template.rstp'}")


def cmd_localize(args):
    cfg = _base_config(args)
    template = load_template(args.template)
    ds = _load_generated(Path(args.dataset))
    odometry = harness._dataset_odometry(ds, cfg)
    results = harness.evaluate_frames(ds.clouds, ds.local_truth, template, cfg, odometry=odometry)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_results_csv(out / "frames.csv", results)
    harness.write_manifest(out, cfg, "localize")
    m = harness.results_metrics(results)
    print(f"lateral MAE {m['y'].mae:.3f} m, heading MAE {m['theta'].mae:.4f} rad")


def cmd_eval_accuracy(args):
    cfg = _base_config(args)
    out = harness.run_accuracy(cfg, out_dir=args.out)
    m = out["metrics"]
    print(f"lateral MAE {m['y'].mae:.3f} m, heading MAE {m['theta'].mae:.4f} rad")


def cmd_eval_cross(args):
    cfg = _base_config(args)
    out = harness.run_cross_template_matrix(cfg, args.rows, out_dir=args.out)
    print("lateral MAE matrix:")
    print(np.array_str(out["mae_y"], precision=3))


def _given(**values) -> dict:
    """The keyword arguments the user gave a value for: the runner's own
    defaults apply to the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def cmd_eval_gaps(args):
    cfg = _sweep_config(args)
    given = _given(n_values=args.n_values, n_draws=args.draws)
    out = harness.run_gap_sweep(cfg, out_dir=args.out, **given)
    for n, c in out["curves"].items():
        print(f"n={n:3d}  y MAE {c['y'].mae:.3f}  std_y {c['std_y_mean']:.3f}")


def cmd_eval_rowend(args):
    cfg = _sweep_config(args)
    out = harness.run_rowend_sweep(cfg, out_dir=args.out, **_given(d_values=args.distances))
    for d, c in out["curves"].items():
        print(f"d={d:5.1f}  y MAE {c['y'].mae:.3f}  flag rate {out['flag_rates'][d]:.2f}")


def cmd_eval_curvature(args):
    cfg = _sweep_config(args)
    given = _given(radii=args.radii, sensor_ranges=args.ranges)
    out = harness.run_curvature_sweep(cfg, out_dir=args.out, **given)
    for (rng_m, radius), m in out.items():
        print(f"range {rng_m:4.0f} m  R={radius:7.1f}  y MAE {m['y'].mae:.3f}")


def cmd_eval_voxel(args):
    cfg = _sweep_config(args)
    out = harness.run_voxel_sweep(cfg, out_dir=args.out, **_given(sizes=args.sizes))
    for size, m in out.items():
        print(f"voxel {size:5.2f} m  y MAE {m['y'].mae:.3f}  {m['file_size']} bytes")


def cmd_eval_template_size(args):
    cfg = _sweep_config(args)
    out = harness.run_template_size_sweep(cfg, out_dir=args.out, **_given(counts=args.counts))
    for count, m in out.items():
        print(f"{count:4d} frames  y MAE {m['y'].mae:.3f}")


def cmd_eval_compare(args):
    cfg = _base_config(args)
    out = harness.run_compare(cfg, out_dir=args.out)
    for method, t in out["tables"].items():
        m = t["overall"]
        print(f"{method:20s} y MAE {m['y'].mae:.3f}  theta MAE {m['theta'].mae:.4f}")


def cmd_closed_loop(args):
    cfg = _sweep_config(args)
    out = harness.closed_loop_sim(cfg, out_dir=args.out, **_given(y0=args.y0))
    print(
        f"offset tracking MAE {out['offset_metrics'].mae:.3f} m, "
        f"heading MAE {out['heading_metrics'].mae:.4f} rad"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowloc", description="Orchard-row template localization experiments"
    )
    parser.add_argument("--version", action="version", version=f"rowloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="render a synthetic run to disk")
    _add_common(p)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("build-template", help="build a template from a generated run")
    _add_common(p)
    p.add_argument("--dataset", type=Path, required=True)
    p.set_defaults(func=cmd_build_template)

    p = sub.add_parser("localize", help="localize a generated run against a template")
    _add_common(p, method=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--template", type=Path, required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval-accuracy", help="build a template, then localize the eval frames")
    _add_common(p, method=True)
    p.set_defaults(func=cmd_eval_accuracy)

    p = sub.add_parser("eval-cross", help="cross-row template matrix")
    _add_common(p, method=True)
    p.add_argument("--rows", type=int, default=3)
    p.set_defaults(func=cmd_eval_cross)

    p = sub.add_parser("eval-gaps", help="unit-tree gap robustness sweep")
    _add_common(p, method=True)
    p.add_argument("--n-values", type=_ints, help="comma-separated removal counts")
    p.add_argument("--draws", type=int, help="degraded draws per removal count")
    p.set_defaults(func=cmd_eval_gaps)

    p = sub.add_parser("eval-rowend", help="row-end truncation sweep")
    _add_common(p, method=True)
    p.add_argument("--distances", type=_floats, help="comma-separated distances to the row end (m)")
    p.set_defaults(func=cmd_eval_rowend)

    p = sub.add_parser("eval-curvature", help="curved-row sweep")
    _add_common(p, method=True)
    p.add_argument("--radii", type=_floats, help="comma-separated row radii (m), inf for straight")
    p.add_argument("--ranges", type=_floats, help="comma-separated sensor ranges (m)")
    p.set_defaults(func=cmd_eval_curvature)

    p = sub.add_parser("eval-voxel", help="template voxel-size sweep")
    _add_common(p, method=True)
    p.add_argument("--sizes", type=_floats, help="comma-separated voxel sizes (m)")
    p.set_defaults(func=cmd_eval_voxel)

    p = sub.add_parser("eval-template-size", help="template data-size sweep")
    _add_common(p, method=True)
    p.add_argument("--counts", type=_ints, help="comma-separated teaching frame counts")
    p.set_defaults(func=cmd_eval_template_size)

    p = sub.add_parser("eval-compare", help="baseline comparison tables")
    _add_common(p)
    p.set_defaults(func=cmd_eval_compare)

    p = sub.add_parser("closed-loop", help="proportional line-following simulation")
    _add_common(p, method=True)
    p.add_argument("--y0", type=float, help="starting lateral offset (m)")
    p.set_defaults(func=cmd_closed_loop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
