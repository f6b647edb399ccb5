"""Top-k search work and kernel lookups by pass on a benchmark workload.

Builds a workload's inputs with `perfbench/workloads.py`'s `make_inputs` and a
template from its teaching frames, then runs the workload's own estimator
call on each frame, counting what `PoseScorer.score_top_k` does: the block
bounds it computes (`_block_bounds`) and the proposals it scores (`score`).
Over every `score` call, top-k or not, it also counts the kernel lookups
(row x point pairs) of each pass, fast, interior and edge, and the pairs
that reach no kernel, as band points (scored) or out points (not scored).
Prints the count of top-k searches and, per frame, the mean and median of
each count.  compare-apricot's particle filter runs no top-k search.

    python3 tools/topk_counts.py uniform-track --seed 5 --frames 40
    python3 tools/topk_counts.py compare-apricot --seed 29 --frames 35
    python3 tools/topk_counts.py grid-sweep --seed 5 --root ../other-checkout
"""

import argparse
import statistics
import sys
from pathlib import Path

COUNTS = ("bounds", "proposals", "fast", "interior", "edge", "band", "out")


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
    # (name, count) records of every score call and kernel call, appended on
    # any scoring thread (list.append is atomic)
    records = []
    score_top_k, block_bounds, score, score_block = (
        PoseScorer.score_top_k, PoseScorer._block_bounds, PoseScorer.score,
        PoseScorer._score_block)

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
        loglik, n_scored = score(self, ys, thetas)
        records.append(("pairs", len(ys) * self._qx32.size))
        records.append(("scored", int(n_scored.sum())))
        return loglik, n_scored

    def counted_block(self, cos_t, sin_t, ys, row, points, masked):
        sums, n_scored = score_block(self, cos_t, sin_t, ys, row, points, masked)
        lookups = len(ys) * points[0].size
        records.append(("edge" if masked else "interior" if points[3] is None else "fast",
                        lookups))
        # an unmasked call scores every lookup; n_scored is then one row's count
        records.append(("kernel_scored", int(n_scored.sum()) if masked else lookups))
        return sums, n_scored

    PoseScorer.score_top_k = counted_search
    PoseScorer._block_bounds = counted_bounds
    PoseScorer.score = counted_score
    PoseScorer._score_block = counted_block
    per_frame = {key: [] for key in COUNTS}
    searches = 0
    for k in range(len(inp.clouds)):
        count.update(searches=0, bounds=0, proposals=0)
        records.clear()
        run.step(k)
        searches += count["searches"]
        got = dict(count, pairs=0, scored=0, kernel_scored=0, fast=0, interior=0, edge=0)
        for name, n in records:
            got[name] += n
        # every (row, point) pair of a score call is in one pass or none, and
        # the band points are the scored pairs no kernel counted
        got["band"] = got["scored"] - got["kernel_scored"]
        got["out"] = got["pairs"] - got["fast"] - got["interior"] - got["edge"] - got["band"]
        for key, values in per_frame.items():
            values.append(got[key])
    print(f"{args.workload} seed {args.seed}: {len(inp.clouds)} frames, {searches} top-k searches")
    for key, values in per_frame.items():
        print(f"{key:10s} per frame  mean {statistics.fmean(values):10.1f}  "
              f"median {statistics.median(values):10.1f}")


if __name__ == "__main__":
    main()
