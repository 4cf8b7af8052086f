#!/usr/bin/env python3
"""Inter-seed variance of the evaluation protocol at different sample counts.

Runs the zero-velocity baseline on a synthetic corpus under many protocol
seeds and reports how the spread of the mean error shrinks as the number
of sampled chunks per sequence grows.
"""
import argparse

import numpy as np

from quatmotion import evaluation as ev
from quatmotion.locomotion import make_synth_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clips", type=int, default=6)
    ap.add_argument("--duration", type=float, default=12.0)
    ap.add_argument("--corpus-seed", type=int, default=2)
    ap.add_argument("--protocol-seeds", type=int, default=200)
    ap.add_argument("--samples", type=int, nargs="+", default=[4, 16, 64, 128])
    ap.add_argument("--horizon-ms", type=int, default=80)
    args = ap.parse_args()

    skel, clips = make_synth_corpus(args.clips, seed=args.corpus_seed, duration=args.duration)
    print(f"corpus: {len(clips)} clips, {skel.num_joints} joints")
    print(f"{'S':>5} {'mean':>10} {'IQR':>10} {'95% CI':>24}")
    for s in args.samples:
        means = []
        for sd in range(args.protocol_seeds):
            proto = ev.EvalProtocol(samples_per_sequence=s, seed=sd,
                                    conditioning_frames=10)
            rep = ev.run_protocol(ev.baseline_zero_velocity, clips, proto)
            means.append(rep.overall_mean(args.horizon_ms))
        means = np.array(means)
        iqr = np.percentile(means, 75) - np.percentile(means, 25)
        lo, hi = ev.bootstrap_ci(means, quantiles=(2.5, 97.5))
        print(f"{s:>5} {means.mean():>10.5f} {iqr:>10.5f} "
              f"[{lo:.5f}, {hi:.5f}]")


if __name__ == "__main__":
    main()
