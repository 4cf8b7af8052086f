"""Prediction baselines, evaluation protocols, and ablation harnesses.

The short-term protocol draws S chunk starts per test clip from one seeded
PCG64 stream (S = 4 for the conventional setting, 128 for the low-variance
one), conditions a predictor on n frames, and reports the Euler-angle
error at fixed millisecond horizons, aggregated per action. All sampling
uses numpy's PCG64 generator so seeds are portable across machines.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import rotmath as rm
from .kinematics import Skeleton, per_frame_velocity_error
from .models import PoseNetwork, PoseNetworkConfig
from .training import TrainConfig, euler_error, free_run_chunks, train_pose

BOOTSTRAP_RESAMPLES = 1000
PLATEAU_REL_TOL = 0.05


# -- baselines -----------------------------------------------------------------

def baseline_zero_velocity(prefix: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last observed frame for every predicted frame."""
    prefix = np.asarray(prefix, dtype=float)
    if prefix.shape[0] == 0:
        raise ValueError("empty prefix")
    return np.repeat(prefix[-1][None], horizon, axis=0)


def baseline_running_average(prefix: np.ndarray, horizon: int,
                             window: int = 4) -> np.ndarray:
    """Constant prediction: normalized mean of the last `window` frames
    after sign alignment."""
    prefix = np.asarray(prefix, dtype=float)
    if prefix.shape[0] < window:
        raise ValueError(f"prefix shorter than averaging window ({window})")
    avg = rm.quat_mean(prefix[-window:])
    return np.repeat(avg[None], horizon, axis=0)


# -- protocol -------------------------------------------------------------------

def horizon_frames(ms: float, frame_rate: float) -> int:
    """The whole number of frames nearest to ``ms`` milliseconds at
    ``frame_rate`` Hz (halves round to even). Raises ValueError if that is
    not finite or below 1 frame."""
    frames = ms * frame_rate / 1000.0
    if not np.isfinite(frames) or round(frames) < 1:
        raise ValueError(f"{ms} ms at {frame_rate} Hz is {frames:.3g} frames, "
                         f"not a finite count of at least 1")
    return int(round(frames))


@dataclass(frozen=True)
class EvalProtocol:
    samples_per_sequence: int = 4
    seed: int = 1234
    conditioning_frames: int = 10
    horizons_ms: tuple = (80, 160, 320, 400)

    def __post_init__(self):
        for name in ("samples_per_sequence", "conditioning_frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.horizons_ms:
            raise ValueError("horizons_ms needs at least one horizon")

    @classmethod
    def standard(cls, **kw) -> "EvalProtocol":
        return cls(samples_per_sequence=4, **kw)

    @classmethod
    def proposed(cls, **kw) -> "EvalProtocol":
        return cls(samples_per_sequence=128, **kw)

    def describe(self) -> str:
        return (f"S={self.samples_per_sequence} seed={self.seed} "
                f"n={self.conditioning_frames} horizons_ms={list(self.horizons_ms)}")


@dataclass
class EvalReport:
    protocol: str
    per_sample: dict = field(default_factory=dict)  # (action, ms) -> [errors]
    skipped_clips: int = 0

    def add(self, action: str, horizon_ms: int, error: float) -> None:
        self.per_sample.setdefault((action, horizon_ms), []).append(float(error))

    def overall_mean(self, horizon_ms: int) -> float:
        errs = [e for (_, ms), v in self.per_sample.items() if ms == horizon_ms
                for e in v]
        return float(np.mean(errs))

    def rows(self, ci: bool = False):
        out = []
        for (action, ms) in sorted(self.per_sample):
            errs = np.array(self.per_sample[(action, ms)])
            lo = hi = float("nan")
            if ci and len(errs) >= 2:
                lo, hi = bootstrap_ci(errs)
            out.append({"action": action, "horizon_ms": ms,
                        "mean_error": float(errs.mean()), "ci_low": lo,
                        "ci_high": hi, "n_samples": len(errs)})
        return out

    def to_csv(self, path) -> None:
        """The rows, with bootstrap intervals, as CSV."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["action", "horizon_ms", "mean_error", "ci_low",
                        "ci_high", "n_samples"])
            for r in self.rows(ci=True):
                w.writerow([r["action"], r["horizon_ms"], r["mean_error"],
                            r["ci_low"], r["ci_high"], r["n_samples"]])

    def summary(self) -> str:
        lines = [f"protocol: {self.protocol} (skipped {self.skipped_clips} clips)",
                 f"{'action':<28}{'ms':>6}{'error':>12}{'n':>8}"]
        for r in self.rows():
            lines.append(f"{r['action']:<28}{r['horizon_ms']:>6}"
                         f"{r['mean_error']:>12.4f}{r['n_samples']:>8}")
        return "\n".join(lines)


def run_protocol(predictor, clips, protocol: EvalProtocol) -> EvalReport:
    """Evaluate ``predictor(prefix (n, A, 4), horizon) -> (horizon, A, 4)``
    under the seeded chunk-sampling protocol.

    Each clip's horizons are its own frames (see :func:`horizon_frames`);
    a clip at a rate that gives no horizon a frame count raises ValueError
    naming it, before any prediction. Chunk starts are uniform over
    [0, len - n - max_horizon] with one rng stream over clips in order;
    too-short clips are skipped with a warning and counted in the report,
    and ValueError is raised, before any prediction, if every clip is.
    """
    clips = list(clips)
    hframes = []
    for i, clip in enumerate(clips):
        try:
            hframes.append([horizon_frames(ms, clip.frame_rate) for ms in protocol.horizons_ms])
        except ValueError as e:
            raise ValueError(f"clip {i} ({clip.action!r}): {e}") from None
    n = protocol.conditioning_frames
    needs = [n + max(frames) for frames in hframes]
    if clips and all(c.num_frames < need for c, need in zip(clips, needs)):
        raise ValueError(f"every clip is too short for the protocol, which needs {min(needs)} "
                         f"frames or more ({n} conditioning frames and the "
                         f"{max(protocol.horizons_ms)} ms horizon)")
    rng = np.random.default_rng(protocol.seed)
    report = EvalReport(protocol=protocol.describe())
    for clip, frames in zip(clips, hframes):
        max_h = max(frames)
        limit = clip.num_frames - n - max_h
        if limit < 0:
            warnings.warn(f"clip {clip.action!r} too short for the protocol; skipped")
            report.skipped_clips += 1
            continue
        starts = rng.integers(0, limit + 1, size=protocol.samples_per_sequence)
        rots, orders = clip.active_rotations, clip.skeleton.active_euler_orders
        sel = np.array(frames) - 1
        for s in starts:
            pred = predictor(rots[s:s + n], max_h)
            errs = euler_error(pred[sel], rots[s + n + sel], orders)
            for ms, err in zip(protocol.horizons_ms, errs):
                report.add(clip.action, ms, err)
    return report


def bootstrap_ci(errors, quantiles=(25.0, 75.0)):
    """Percentile bootstrap interval for the mean of ``errors`` over
    ``BOOTSTRAP_RESAMPLES`` resamples drawn from seed 0."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("empty sample")
    rng = np.random.default_rng(0)
    idx = rng.integers(0, errors.size, size=(BOOTSTRAP_RESAMPLES, errors.size))
    means = errors[idx].mean(axis=1)
    lo, hi = np.percentile(means, quantiles)
    return float(lo), float(hi)


# -- ablation harnesses ------------------------------------------------------------

def detect_plateau(errors) -> int:
    """First index after which every successive change stays below
    ``PLATEAU_REL_TOL`` of the current value."""
    errors = [float(e) for e in errors]
    for i in range(len(errors)):
        flat = all(abs(errors[j + 1] - errors[j]) < PLATEAU_REL_TOL * max(abs(errors[j]), 1e-12)
                   for j in range(i, len(errors) - 1))
        if flat:
            return i
    return len(errors) - 1


def tail_mass(errors: np.ndarray, threshold: float) -> float:
    """Fraction of samples strictly beyond the threshold."""
    errors = np.asarray(errors, dtype=float)
    return float(np.mean(errors > threshold))


def compare_parameterizations(clips, skel: Skeleton, config: TrainConfig,
                              parameterizations=("quaternion", "expmap",
                                                 "euler-xyz", "euler-yzx"),
                              seeds=(0, 1), hidden: int = 64,
                              validate_every: int = 10) -> dict:
    """Train one absolute-mode model per parameterization and seed under an
    identical budget; all variants share the FK layer through conversion
    to quaternions. Returns per-variant loss curves and pooled free-run
    velocity errors, both validated on ``clips``."""
    a = skel.num_active
    out = {}
    for param in parameterizations:
        runs = []
        for seed in seeds:
            net = PoseNetwork(PoseNetworkConfig.desk(
                a, hidden=hidden, mode="absolute", parameterization=param), seed=seed)
            cfg = replace(config, seed=config.seed + seed)
            hist = train_pose(net, clips, skel, cfg, validate_every=validate_every)
            vel = np.concatenate([
                per_frame_velocity_error(got, ref) for _, _, got, ref in free_run_chunks(
                    net, clips, skel, cfg.conditioning_frames, cfg.prediction_frames)])
            runs.append({
                "seed": seed,
                "train_curve": [h["train_loss"] for h in hist],
                "position_curve": [h["val_position_loss"] for h in hist
                                   if h["val_position_loss"] == h["val_position_loss"]],
                "velocity_curve": [h["val_velocity_loss"] for h in hist
                                   if h["val_velocity_loss"] == h["val_velocity_loss"]],
                "velocity_errors": vel,
            })
        out[param] = runs
    return out
