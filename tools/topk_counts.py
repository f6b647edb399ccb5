"""Bounds computed and proposals scored by top-k search on a benchmark workload.

Builds a workload's inputs with `perfbench/workloads.py`'s `make_inputs` and a
template from its teaching frames, then runs the workload's own estimator
call on each frame, counting what `PoseScorer.score_top_k` does: the block
bounds it computes (`_block_bounds`) and the proposals it scores (`score`).
Prints the count of top-k searches and, per frame, the mean and median of
each count.  compare-apricot's particle filter runs no top-k search.

    python3 tools/topk_counts.py uniform-track --seed 5 --frames 40
    python3 tools/topk_counts.py grid-sweep --seed 5 --root ../other-checkout
"""

import argparse
import statistics
import sys
from pathlib import Path


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=("uniform-track", "grid-sweep", "compare-apricot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="the checkout whose src/rowloc and perfbench are run (default: this one)")
    args = p.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    # imported from --root, once the path is set
    from workloads import WORKLOADS

    from rowloc.measurement import PoseScorer
    from rowloc.template import build_template

    workload = WORKLOADS[args.workload]
    inp = workload.make_inputs(args.seed, args.frames)
    cfg = inp.cfg
    template = build_template(inp.teach_clouds, inp.teach_truths, cfg.template_cfg,
                              cfg.mcl_cfg.pre_cfg)
    run = workload(inp, template)

    count = {"searches": 0, "bounds": 0, "proposals": 0}
    depth = [0]  # top-k searches under way: only their bounds and scores count
    score_top_k, block_bounds, score = (PoseScorer.score_top_k, PoseScorer._block_bounds,
                                        PoseScorer.score)

    def counted_search(self, ys, thetas, k):
        count["searches"] += 1
        depth[0] += 1
        try:
            return score_top_k(self, ys, thetas, k)
        finally:
            depth[0] -= 1

    def counted_bounds(self, middle, y_lo, blocks, slack, pooled):
        count["bounds"] += len(blocks) if depth[0] else 0
        return block_bounds(self, middle, y_lo, blocks, slack, pooled)

    def counted_score(self, ys, thetas):
        count["proposals"] += len(ys) if depth[0] else 0
        return score(self, ys, thetas)

    PoseScorer.score_top_k = counted_search
    PoseScorer._block_bounds = counted_bounds
    PoseScorer.score = counted_score
    per_frame = {"bounds": [], "proposals": []}
    searches = 0
    for k in range(len(inp.clouds)):
        count.update(searches=0, bounds=0, proposals=0)
        run.step(k)
        searches += count["searches"]
        for key, values in per_frame.items():
            values.append(count[key])
    print(f"{args.workload} seed {args.seed}: {len(inp.clouds)} frames, {searches} top-k searches")
    for key, values in per_frame.items():
        print(f"{key:10s} per frame  mean {statistics.fmean(values):8.1f}  "
              f"median {statistics.median(values):8.1f}")


if __name__ == "__main__":
    main()
