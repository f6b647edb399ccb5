"""SHA-256 of the `evaluate_frames` rows of every method on a benchmark workload.

Builds a workload's inputs with `perfbench/workloads.py`'s `make_inputs`, a
template from its teaching frames, and prints one digest per method and one
over all six: the SHA-256 of the `repr` of the rows.  A last line gives the
SHA-256 of the bytes `save_template` writes for the template.  Two
checkouts whose digests match build the same template file and localize
those frames identically, bit for bit.  Workloads without odometry run the
particle filter with zero odometry deltas.

    python3 tools/row_digest.py compare-apricot --seed 10 --frames 200
    python3 tools/row_digest.py uniform-track --seed 3 --root ../other-checkout
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=("uniform-track", "grid-sweep", "compare-apricot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="the checkout whose src/rowloc and perfbench are run (default: this one)")
    args = p.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    # imported from --root, once the path is set
    import numpy as np
    from workloads import WORKLOADS

    from rowloc.harness import METHODS, evaluate_frames
    from rowloc.mcl import OdometryDelta
    from rowloc.template import build_template, save_template

    inp = WORKLOADS[args.workload].make_inputs(args.seed, args.frames)
    cfg = inp.cfg
    template = build_template(inp.teach_clouds, inp.teach_truths, cfg.template_cfg,
                              cfg.mcl_cfg.pre_cfg)
    zero = OdometryDelta(np.zeros(3), cfg.odometry_sigma)
    odometry = inp.odometry or [zero] * (len(inp.clouds) - 1)
    total = hashlib.sha256()
    for method in METHODS:
        rows = evaluate_frames(inp.clouds, inp.truth, template, cfg, method=method,
                               odometry=odometry)
        text = repr(rows).encode()
        total.update(text)
        print(f"{method:20s} {len(rows):4d} rows  {hashlib.sha256(text).hexdigest()}")
    print(f"{'all':20s} {len(inp.clouds):4d} frames {total.hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "template.rstp")
        save_template(template, path)
        saved = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"{'template':20s} {template.n_frames:4d} taught {saved}")


if __name__ == "__main__":
    main()
