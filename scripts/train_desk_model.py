#!/usr/bin/env python3
"""Train a desk-scale pose model on the synthetic gait corpus and compare
its short-horizon error against the zero-velocity baseline."""
import argparse
import time

from quatmotion import evaluation as ev
from quatmotion import models as mo
from quatmotion import motiondata as md
from quatmotion import training as tr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clips", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--horizon", type=int, default=2,
                    help="evaluation horizon in frames (2 = 80 ms at 25 Hz)")
    ap.add_argument("--checkpoint", help="optional checkpoint output path")
    args = ap.parse_args()

    skel, clips = md.make_synth_corpus(args.clips, seed=0, duration=12)
    split = max(1, int(len(clips) * 0.75))
    train_clips, test_clips = clips[:split], clips[split:]
    frame_rate = test_clips[0].frame_rate
    protocol = ev.EvalProtocol(samples_per_sequence=16, seed=123,
                               conditioning_frames=10,
                               horizons_ms=(1000 * args.horizon / frame_rate,))

    def eval_mean(predict):
        report = ev.run_protocol(predict, test_clips, protocol)
        return report.overall_mean(protocol.horizons_ms[0])

    zv = eval_mean(ev.baseline_zero_velocity)
    print(f"zero-velocity baseline: {zv:.4f}")

    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active), seed=1)
    cfg = tr.TrainConfig(epochs=args.epochs, conditioning_frames=10,
                         prediction_frames=6, loss="quat_dot",
                         batch_size=6, seed=args.seed, lr0=1e-3)
    t0 = time.time()
    hist = tr.train_pose(net, train_clips, skel, cfg, val_clips=test_clips,
                         validate_every=max(1, args.epochs // 5),
                         checkpoint_path=args.checkpoint)
    print(f"trained {args.epochs} epochs in {time.time() - t0:.0f}s, "
          f"final train loss {hist[-1]['train_loss']:.5f}")

    me = eval_mean(lambda prefix, h: tr.free_run_predict(net, prefix, h))
    print(f"model: {me:.4f}  (improvement {1 - me / zv:.1%})")


if __name__ == "__main__":
    main()
