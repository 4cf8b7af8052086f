"""Losses, schedules, scheduled-sampling rollouts, and training loops.

Deterministic by construction: schedules are closed forms of the epoch
index (lr = lr0 * LR_DECAY^E, ground-truth probability p = SAMPLING_DECAY^E),
all randomness flows through one seeded generator whose state is stored in
checkpoints, gradients are clipped to a CLIP_NORM global norm before every
Adam update, and REG_WEIGHT weighs the unit-norm penalty, all four fixed.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import rotmath as rm
from .autodiff import Tensor
from .kinematics import (Skeleton, forward_kinematics, forward_kinematics_tensor,
                         position_error, position_error_tensor, velocity_error)
from .models import (CONTROL_DIM, PoseNetwork, drop_fixed, encode_pose,
                     pose_network_from_checkpoint, save_checkpoint)
from .motiondata import EpisodeSampler
from .optim import AdamState, adam_step

LR_DECAY = 0.999
SAMPLING_DECAY = 0.995
CLIP_NORM = 0.1
REG_WEIGHT = 0.01
# their keys in older checkpoints and configs, which load only at these values
FIXED = {"lr_decay": LR_DECAY, "sampling_decay": SAMPLING_DECAY, "clip_norm": CLIP_NORM,
         "reg_weight": REG_WEIGHT}
LOG_COLUMNS = ("epoch", "lr", "p", "train_loss", "val_position_loss",
               "val_velocity_loss", "wall_seconds", "grad_norm", "clip_fraction")


@dataclass
class PaceTrainConfig:
    """What a pace training run reads; ``TrainConfig`` adds pose training's fields."""
    epochs: int = 100
    lr0: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr0 < float("inf"):
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, values: dict):
        """Stored or configured ``values``, each ``FIXED`` key only at its value."""
        return cls(**drop_fixed(values, FIXED))

    def lr_at(self, epoch: int) -> float:
        return self.lr0 * LR_DECAY ** epoch


@dataclass
class TrainConfig(PaceTrainConfig):
    conditioning_frames: int = 10
    prediction_frames: int = 4
    loss: str = "quat_dot"  # quat_dot | euler_l1 | positional
    batch_size: int = 8

    def __post_init__(self):
        if self.loss not in ("quat_dot", "euler_l1", "positional"):
            raise ValueError(f"unknown loss {self.loss!r}")
        for name in ("conditioning_frames", "prediction_frames", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        super().__post_init__()

    def p_at(self, epoch: int) -> float:
        return SAMPLING_DECAY ** epoch


# -- losses -------------------------------------------------------------------

def loss_positional(pred_quats: Tensor, ref_positions: np.ndarray, skel: Skeleton) -> Tensor:
    """Mean joint distance between FK(pred), rooted at the reference root,
    and reference positions."""
    ref_positions = np.asarray(ref_positions, dtype=float)
    pos = forward_kinematics_tensor(skel, pred_quats, ref_positions[..., 0, :])
    return position_error_tensor(pos, ref_positions)


def loss_euler_l1(pred_quats: Tensor, ref_euler: np.ndarray, orders) -> Tensor:
    """Mean per-component L1 distance in Euler space, each component taken
    modulo 2*pi to its nearest representative; one Euler order per joint."""
    ref_euler = np.asarray(ref_euler, dtype=float)
    total = None
    for order, joints in rm.order_groups(tuple(orders), pred_quats.shape[-2]):
        angles = ad.quat_to_euler(pred_quats[..., joints, :], order)
        diff = ad.wrap_angle(angles - ref_euler[..., joints, :])
        part = ad.tsum(ad.absval(diff))
        total = part if total is None else total + part
    return total / float(ref_euler.size)


def euler_error(pred_quats: np.ndarray, ref_quats: np.ndarray, orders) -> np.ndarray:
    """Protocol metric: per-frame Euclidean norm of the vector of wrapped
    per-component Euler differences across all joints, one order per joint."""
    # one conversion for both; it works per quaternion, so the angles are
    # those of two separate calls
    both = rm.joint_euler(np.stack([pred_quats, ref_quats]), orders)
    diffs = rm.wrap_angle(both[0] - both[1])
    lead = diffs.shape[:-2]
    return np.linalg.norm(diffs.reshape(lead + (-1,)), axis=-1)


def loss_quat_dot(pred: Tensor, ref: np.ndarray) -> Tensor:
    """Mean of 1 - <p, q> over quaternions of one shape, half the squared
    chord distance for unit inputs; one node, the composite ops' arithmetic."""
    ref = np.asarray(ref, dtype=float)
    dot = (pred.data * ref).sum(axis=-1)
    scale = 1.0 / dot.size
    return ad._make((1.0 + dot * -1.0).sum() * scale, (pred,),
                    (lambda g: ((g * scale) * -1.0) * ref,))


def penalty_unit_norm(raw_quats: Tensor, weight: float = REG_WEIGHT) -> Tensor:
    """weight * mean((|q|^2 - 1)^2) over raw (pre-normalization) outputs;
    one node, the composite ops' arithmetic."""
    raw = raw_quats.data
    d = (raw * raw).sum(axis=-1) - 1.0
    scale = 1.0 / d.size
    return ad._make(((d * d).sum() * scale) * weight, (raw_quats,),
                    (lambda g: (2.0 * raw) * ((2.0 * d) * ((g * weight) * scale))[..., None],))


# -- scheduled sampling rollouts ------------------------------------------------

def _step_loss(out, target_quats, target_pos, skel, config: TrainConfig):
    if config.loss == "quat_dot":
        base = loss_quat_dot(out["quats"], target_quats)
    elif config.loss == "positional":
        base = loss_positional(out["quats"], target_pos, skel)
    else:
        orders = skel.active_euler_orders
        base = loss_euler_l1(out["quats"], rm.joint_euler(target_quats, orders), orders)
    if out["raw_quats"] is not None:
        base = base + penalty_unit_norm(out["raw_quats"])
    return base


def _aux_inputs(net: PoseNetwork, batch: int, frames,
                root_positions: np.ndarray | None = None) -> dict:
    """Translation/control inputs for models that expect them, at one frame
    index or at an array of them (one input frame each, on axis 1).

    Pose training carries no trajectory context, so translations are the
    root height (offset 0) and controls are zero; the real signals only
    exist in closed-loop generation.
    """
    cfg, kw = net.config, {}
    shape = (batch,) + np.shape(frames)
    if cfg.include_translations:
        trans = np.zeros(shape + (2,))
        if root_positions is not None:
            pos = np.asarray(root_positions)
            trans[..., 0] = pos[:, np.minimum(frames, pos.shape[1] - 1), 1]
        kw["translations"] = Tensor(trans)
    if cfg.include_controls:
        kw["controls"] = Tensor(np.zeros(shape + (CONTROL_DIM,)))
    return kw


def _autoregress(net: PoseNetwork, enc: np.ndarray, quats: np.ndarray, n: int,
                 steps: int, p: float = 0.0, rng: np.random.Generator | None = None,
                 root_positions: np.ndarray | None = None):
    """Condition ``net`` on the first n >= 1 frames of a batched episode
    with one ``forward_window`` call, then yield its output dict for each
    of the next ``steps`` >= 1 frames, one ``net.step`` per fed-back frame.

    ``quats`` (B, T, A, 4) is the episode and ``enc`` (B, T, pose_dim) its
    network encoding. Between predictions each sequence is fed its
    ground-truth next frame with probability p, otherwise its own
    prediction. Without an rng the prediction is always fed back
    (free-run; callers run it under ``autodiff.no_grad()``). With one, the
    recurrent backbone keeps fed-back predictions on the tape, one
    ``autodiff.select`` node per input picking each row from ground truth
    or prediction, and draws nothing at p >= 1, while the convolutional
    backbone reads them detached and always draws; so each keeps the rng
    stream, and training the results, it has had from the start.
    """
    if n < 1:
        raise ValueError(f"need at least one conditioning frame, got {n}")
    if steps < 1:
        raise ValueError(f"need at least one step to predict, got {steps}")
    b = enc.shape[0]
    out = net.forward_window(Tensor(enc[:, :n]), Tensor(quats[:, n - 1]),
                             **_aux_inputs(net, b, np.arange(n), root_positions))
    yield out
    for f in range(n, n + steps - 1):
        pose, prev_q = out["feedback"], out["quats"]
        if rng is None:  # free-run
            pass
        elif net.config.backbone == "convolutional":
            keep = rng.random(b) < p  # per-sequence Bernoulli(p)
            pose = Tensor(np.where(keep[:, None], enc[:, f], pose.data))
            prev_q = Tensor(np.where(keep[:, None, None], quats[:, f], prev_q.data))
        elif p >= 1.0:
            pose, prev_q = Tensor(enc[:, f]), Tensor(quats[:, f])
        else:
            keep = rng.random(b) < p
            pose = ad.select(keep[:, None], enc[:, f], pose)
            prev_q = ad.select(keep[:, None, None], quats[:, f], prev_q)
        out = net.step(pose, out["state"], prev_quats=prev_q,
                       **_aux_inputs(net, b, f, root_positions))
        yield out


def scheduled_sampling_rollout(net: PoseNetwork, rotations: np.ndarray,
                               skel: Skeleton, config: TrainConfig, p: float,
                               rng: np.random.Generator,
                               root_positions: np.ndarray | None = None) -> Tensor:
    """Average step loss of an autoregressive rollout over a ground-truth
    episode (B, n+k, A, 4).

    Conditioning frames are always ground truth. During the k predicted
    steps each sequence independently feeds back ground truth with
    probability p, otherwise its own prediction (see ``_autoregress``).
    """
    rotations = np.asarray(rotations, dtype=float)
    n = config.conditioning_frames
    k = config.prediction_frames
    if rotations.shape[1] < n + k:
        raise ValueError(f"episode needs at least {n + k} frames")
    target_pos = None
    if config.loss == "positional":
        if root_positions is None:
            root_positions = np.zeros(rotations.shape[:2] + (3,))
        target_pos = forward_kinematics(skel, rotations, root_positions)

    enc = encode_pose(rotations, net.config.parameterization)
    outs = _autoregress(net, enc, rotations, n, k, p, rng, root_positions)
    losses = [_step_loss(out, rotations[:, f], None if target_pos is None else target_pos[:, f],
                         skel, config)
              for f, out in zip(range(n, n + k), outs)]
    return sum(losses[1:], losses[0]) / float(len(losses))


# -- free-run validation ----------------------------------------------------------

@ad.no_grad()
def free_run_predict(net: PoseNetwork, prefix_quats: np.ndarray, horizon: int) -> np.ndarray:
    """Condition on a (n, A, 4) prefix, then predict `horizon` frames
    autoregressively, recording no tape. Returns (horizon, A, 4); raises
    ``NumericalError`` if any predicted value is not finite."""
    quats = np.asarray(prefix_quats, dtype=float)[None]
    enc = encode_pose(quats, net.config.parameterization)
    pred = np.stack([out["quats"].data[0]
                     for out in _autoregress(net, enc, quats, len(prefix_quats), horizon)])
    if not np.isfinite(pred).all():
        raise ad.NumericalError("non-finite free-run prediction")
    return pred


def free_run_chunks(net: PoseNetwork, clips, skel: Skeleton, n: int, k: int,
                    max_chunks: int = 8):
    """Free-run ``net`` from up to ``max_chunks`` evenly spaced n-frame
    prefixes per clip; clips shorter than n + k frames are skipped. Yields
    ``(clip, start, predicted, reference)``, the last two root-relative FK
    positions (k, J, 3) of the prediction and of the frames it predicts. One
    FK call per clip covers all its chunks, so a ``NumericalError`` in any
    of them raises before the clip's first chunk is yielded."""
    for clip in clips:
        limit = clip.num_frames - n - k
        if limit < 0:
            continue
        starts = np.unique(np.linspace(0, limit, min(max_chunks, limit + 1), dtype=int))
        rots = clip.active_rotations
        preds = [free_run_predict(net, rots[s:s + n], k) for s in starts]
        refs = [rots[s + n:s + n + k] for s in starts]
        got, ref = forward_kinematics(skel, np.stack([preds, refs]))
        for s, g, r in zip(starts, got, ref):
            yield clip, s, g, r


def validate_pose(net: PoseNetwork, clips, skel: Skeleton,
                  config: TrainConfig) -> tuple[float, float]:
    """Mean position and velocity error of free-run prediction on evenly
    spaced validation chunks."""
    n, k = config.conditioning_frames, config.prediction_frames
    pos_errs, vel_errs = [], []
    for _, _, got, ref in free_run_chunks(net, clips, skel, n, k):
        pos_errs.append(position_error(got, ref))
        if k >= 2:
            vel_errs.append(velocity_error(got, ref))
    if not pos_errs:
        raise ValueError("no validation chunk is long enough")
    return float(np.mean(pos_errs)), float(np.mean(vel_errs)) if vel_errs else 0.0


# -- training loops -----------------------------------------------------------------

@contextmanager
def _epoch_log(path, columns, start_epoch: int):
    """Yield a function that writes an epoch's row (a dict over ``columns``)
    to the CSV log at ``path`` and flushes it, or does nothing without one.
    A run from epoch 0 starts a new log; a resumed run appends to the old
    one, which must have this header, after cutting it at its first row
    that is unreadable or at or after ``start_epoch``."""
    if path is None:
        yield lambda row: None
        return
    header = ",".join(columns)
    first = ""
    if start_epoch > 0 and os.path.exists(path):
        with open(path, "rb+") as fh:
            first = fh.readline().decode(errors="replace").rstrip("\r\n")
            if first and first != header:
                raise ValueError(f"{path}: header {first!r} is not {header!r}; "
                                 f"resumed rows cannot be appended to it")
            for line in iter(fh.readline, b""):
                epoch = line.split(b",", 1)[0]
                if not (line.endswith(b"\n") and epoch.isdigit() and int(epoch) < start_epoch):
                    fh.truncate(fh.tell() - len(line))
                    break
    with open(path, "a" if first else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not first:
            writer.writerow(columns)

        def write(row: dict) -> None:
            writer.writerow([row[c] for c in columns])
            fh.flush()
        yield write


def _minibatches(sampler, count: int, size: int):
    """``count`` episodes from ``sampler`` in minibatches of at most ``size``."""
    for start in range(0, count, size):
        yield sampler.sample(min(size, count - start))


def _adam_epoch(net, adam: AdamState, lr: float, batches, loss_of):
    """One epoch of clipped Adam updates of ``net``, one per batch: zero the
    gradients, backpropagate ``loss_of(batch)``, step. Returns the batch
    losses and the global gradient norms before clipping."""
    arrays = net.param_arrays()
    losses, norms = [], []
    for batch in batches:
        net.zero_grad()
        loss = loss_of(batch)
        loss.backward()
        norms.append(adam_step(arrays, net.grads(), adam, lr, clip_norm=CLIP_NORM))
        losses.append(loss.item())
    return losses, norms


def train_pose(net: PoseNetwork, clips, skel: Skeleton, config: TrainConfig,
               val_clips=None, log_path=None, checkpoint_path=None,
               start_epoch: int = 0, adam: AdamState | None = None,
               rng_state: dict | None = None, validate_every: int = 10):
    """Scheduled-sampling training; returns a history of per-epoch rows.

    One epoch draws (number of sequences) episodes and consumes them in
    minibatches. Fully deterministic given the seed; pass the checkpoint's
    epoch/Adam/rng state to resume bit-exactly.
    """
    if not clips:
        raise ValueError("empty dataset")
    episode_len = config.conditioning_frames + config.prediction_frames
    sampler = EpisodeSampler(clips, episode_len, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    if rng_state is not None:
        sampler.rng.bit_generator.state = rng_state["sampler"]
        rng.bit_generator.state = rng_state["rollout"]
    adam = adam or AdamState()
    val_clips = val_clips or clips

    history = []
    with _epoch_log(log_path, LOG_COLUMNS, start_epoch) as log:
        for epoch in range(start_epoch, config.epochs):
            t0 = time.time()
            lr, p = config.lr_at(epoch), config.p_at(epoch)
            epoch_losses, norms = _adam_epoch(
                net, adam, lr, _minibatches(sampler, len(clips), config.batch_size),
                lambda batch: scheduled_sampling_rollout(
                    net, batch["rotations"], skel, config, p, rng,
                    root_positions=batch["root_positions"]))
            last = (epoch == config.epochs - 1)
            if last or epoch % validate_every == 0:
                val_pos, val_vel = validate_pose(net, val_clips, skel, config)
            else:
                val_pos = val_vel = float("nan")
            row = {"epoch": epoch, "lr": lr, "p": p,
                   "train_loss": float(np.mean(epoch_losses)),
                   "val_position_loss": val_pos, "val_velocity_loss": val_vel,
                   "wall_seconds": time.time() - t0,
                   "grad_norm": float(np.mean(norms)),
                   "clip_fraction": float(np.mean(np.array(norms) > CLIP_NORM))}
            history.append(row)
            log(row)
            if checkpoint_path is not None:
                save_pose_checkpoint(checkpoint_path, net, skel, config,
                                     epoch + 1, adam,
                                     {"sampler": sampler.rng.bit_generator.state,
                                      "rollout": rng.bit_generator.state})
    return history


def save_pose_checkpoint(path, net: PoseNetwork, skel: Skeleton,
                         config: TrainConfig, epoch: int, adam: AdamState,
                         rng_state: dict) -> None:
    arrays = dict(net.param_arrays())
    for name, m in adam.m.items():
        arrays[f"adam.m.{name}"] = m
        arrays[f"adam.v.{name}"] = adam.v[name]
    meta = {"train_config": asdict(config), "epoch": epoch,
            "adam_step": adam.step, "rng_state": rng_state,
            "skeleton": skel.to_dict()}
    save_checkpoint(path, "pose", asdict(net.config), arrays, meta)


def network_from_checkpoint(ck: dict) -> PoseNetwork:
    """The pose network a checkpoint stores, without the optimizer's
    ``adam.m.*``/``adam.v.*`` arrays that training checkpoints add."""
    arrays = {k: v for k, v in ck["arrays"].items() if not k.startswith("adam.")}
    return pose_network_from_checkpoint({"config": ck["config"], "arrays": arrays})


def resume_state(ck: dict) -> tuple:
    """A training checkpoint's TrainConfig, and the ``start_epoch``,
    ``adam`` and ``rng_state`` arguments that make ``train_pose`` resume
    the run bit-exactly."""
    adam = AdamState(step=int(ck["meta"]["adam_step"]))
    for k, v in ck["arrays"].items():
        if k.startswith(("adam.m.", "adam.v.")):  # adam.<moment>.<param>
            getattr(adam, k[5])[k[7:]] = v.copy()
    return (TrainConfig.from_dict(ck["meta"]["train_config"]),
            {"start_epoch": int(ck["meta"]["epoch"]), "adam": adam,
             "rng_state": ck["meta"]["rng_state"]})


# perfbench still reaches these locomotion names here and traces some of them by
# this module, so each is looked up at call time, which finds the traced object.
# The lookup goes when ROADMAP item 3 renames the spans.
def __getattr__(name: str):
    if name in ("pace_training_example", "train_pace"):
        return getattr(sys.modules[f"{__package__}.locomotion"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
