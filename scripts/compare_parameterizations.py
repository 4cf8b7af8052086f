#!/usr/bin/env python3
"""Quaternion vs exponential-map vs Euler pose models on wrap-prone data.

Spins each synthetic clip through several root revolutions so yaw sweeps
across +-pi, trains one model per rotation encoding under an identical
budget, and prints velocity-error tail mass plus final position loss.
"""
import argparse

import numpy as np

from quatmotion import evaluation as ev
from quatmotion import motiondata as md
from quatmotion.locomotion import make_synth_corpus
from quatmotion.training import TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clips", type=int, default=4)
    ap.add_argument("--revolutions", type=float, default=3.0)
    ap.add_argument("--epochs", type=int, default=120)
    ap.add_argument("--hidden", type=int, default=48)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--parameterizations", nargs="+",
                    default=["quaternion", "expmap", "euler-yzx"])
    args = ap.parse_args()

    skel, corpus = make_synth_corpus(args.clips, seed=3, duration=10)
    clips = [md.spin_clip(c, revolutions=args.revolutions) for c in corpus]
    cfg = TrainConfig(epochs=args.epochs, conditioning_frames=10,
                      prediction_frames=4, loss="quat_dot",
                      batch_size=8, seed=11)
    res = ev.compare_parameterizations(
        clips, skel, cfg, parameterizations=tuple(args.parameterizations),
        seeds=tuple(args.seeds), hidden=args.hidden,
        validate_every=max(1, args.epochs // 2))

    q99 = np.percentile(
        np.concatenate([r["velocity_errors"] for r in res["quaternion"]]), 99)
    print(f"threshold: quaternion 99th pct velocity error = {q99:.5f}")
    print(f"{'encoding':<12} {'tail mass':>10} {'final position loss':>22}")
    for p in res:
        pool = np.concatenate([r["velocity_errors"] for r in res[p]])
        finals = [r["position_curve"][-1] for r in res[p]]
        print(f"{p:<12} {ev.tail_mass(pool, q99):>10.4f} "
              f"{np.mean(finals):>14.4f} +- {np.std(finals):.4f}")


if __name__ == "__main__":
    main()
