import csv
import json
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from quatmotion import autodiff as ad
from quatmotion import locomotion as lo
from quatmotion import models as mo
from quatmotion import rotmath as rm
from quatmotion import training as tr
from quatmotion.autodiff import NumericalError, Tensor
from quatmotion.kinematics import forward_kinematics
from quatmotion.motiondata import MotionClip
from quatmotion.optim import BETA1, AdamState, adam_step, clip_global_norm

from conftest import random_unit_quats


def test_schedules_exact():
    cfg = tr.TrainConfig(lr0=1e-3)
    for e in range(0, 500, 7):
        assert cfg.lr_at(e) == 1e-3 * 0.999 ** e
        assert cfg.p_at(e) == 0.995 ** e


@pytest.mark.parametrize("field,value", [
    ("lr0", -1e-3), ("lr0", 0.0), ("lr0", float("inf")), ("lr0", float("nan")),
    ("epochs", -3), ("epochs", 0), ("seed", -1),
])
def test_train_config_rejects_values_that_break_training(field, value):
    # a negative step trains uphill, no epoch trains nothing, and numpy
    # seeds no generator from a negative seed
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: value})


def test_train_config_holds_only_what_a_run_varies():
    assert [f.name for f in fields(tr.PaceTrainConfig)] == ["epochs", "lr0", "seed"]
    assert [f.name for f in fields(tr.TrainConfig)] == [
        "epochs", "lr0", "seed", "conditioning_frames", "prediction_frames", "loss", "batch_size"]


@pytest.mark.parametrize("key", sorted(tr.FIXED))
def test_fixed_train_keys_load_only_at_their_values(key):
    # older checkpoints and configs store the four constants as keys
    fixed = tr.FIXED[key]
    assert tr.TrainConfig.from_dict({"epochs": 3, key: fixed}) == tr.TrainConfig(epochs=3)
    for value in (fixed / 2, float("nan"), str(fixed)):
        with pytest.raises(ValueError, match=f"{key} must be {fixed}, got {value!r}"):
            tr.TrainConfig.from_dict({"epochs": 3, key: value})


def test_clip_global_norm():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
    clipped = clip_global_norm(grads, 0.1)
    total = np.sqrt(sum((g ** 2).sum() for g in clipped.values()))
    assert total == pytest.approx(0.1)
    small = {"a": np.full(4, 1e-4)}
    assert np.array_equal(clip_global_norm(small, 0.1)["a"], small["a"])


def test_adam_matches_reference_formula():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.01, -0.02])}
    state = AdamState()
    adam_step(params, {k: v.copy() for k, v in grads.items()}, state,
              lr=1e-3, clip_norm=float("inf"))
    m = 0.1 * grads["w"]
    v = 0.001 * grads["w"] ** 2
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    want = np.array([1.0, -2.0]) - 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(params["w"], want, atol=1e-15)


def test_loss_euler_l1_matches_brute_force(rng):
    q = random_unit_quats(rng, (6, 3))
    ref = rng.uniform(-np.pi, np.pi, size=(6, 3, 3))
    orders = ["zyx", "xyz", "zyx"]
    loss = tr.loss_euler_l1(Tensor(q), ref, orders).item()
    pred = np.stack([rm.quat_to_euler(q[:, j], orders[j]).angles
                     for j in range(3)], axis=1)
    diffs = pred - ref
    best = np.min(np.abs(diffs[..., None] + 2 * np.pi *
                         np.arange(-2, 3)), axis=-1)
    assert loss == pytest.approx(best.mean(), abs=1e-12)


def test_euler_error_is_l2_of_wrapped_diffs(rng):
    q = random_unit_quats(rng, (5, 2))
    r = random_unit_quats(rng, (5, 2))
    orders = ["zyx", "xyz"]
    got = tr.euler_error(q, r, orders)
    pe = np.stack([rm.quat_to_euler(q[:, j], orders[j]).angles
                   for j in range(2)], axis=1)
    re = np.stack([rm.quat_to_euler(r[:, j], orders[j]).angles
                   for j in range(2)], axis=1)
    want = np.linalg.norm(rm.wrap_angle(pe - re).reshape(5, -1), axis=1)
    assert np.abs(got - want).max() < 1e-12


def _tape_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through ``_parents``."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# the ids keep the looser bounds these cases were first pinned at, so that
# test names stay stable; ``most`` is the bound checked
@pytest.mark.parametrize("parameterization,loss,most,net_kw,n", [
    pytest.param("euler-xyz", "euler_l1", 103, {"mode": "absolute"}, 10,
                 id="euler-xyz-euler_l1-200"),
    pytest.param("expmap", "positional", 91, {"mode": "absolute"}, 10,
                 id="expmap-positional-149"),
    pytest.param("quaternion", "quat_dot", 89, {}, 10, id="quaternion-velocity-165"),
    pytest.param("quaternion", "quat_dot", 87, {"backbone": "convolutional"}, 32,
                 id="conv-quaternion-velocity-193"),
])
def test_rollout_tape_nodes(corpus, parameterization, loss, most, net_kw, n):
    # a rollout of a desk model at batch 8 (k = 6) builds one node per
    # conversion, per quaternion head, per conv layer, per step loss and
    # per scheduled-sampling select
    skel, clips = corpus
    rots = np.stack([clip.active_rotations[:n + 6] for clip in clips * 3][:8])
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, parameterization=parameterization,
                                                   **net_kw), seed=0)
    cfg = tr.TrainConfig(conditioning_frames=n, prediction_frames=6, loss=loss)
    out = tr.scheduled_sampling_rollout(net, rots, skel, cfg, 0.5, np.random.default_rng(0))
    assert _tape_nodes(out) <= most


def test_loss_quat_dot_is_half_squared_chord(rng):
    q = random_unit_quats(rng, (10, 2))
    r = random_unit_quats(rng, (10, 2))
    loss = tr.loss_quat_dot(Tensor(q), r).item()
    chord = np.sum((q - r) ** 2, axis=-1) / 2
    assert loss == pytest.approx(chord.mean(), abs=1e-12)


def test_unit_norm_penalty():
    raw = Tensor(np.array([[2.0, 0, 0, 0], [1.0, 0, 0, 0]]))
    got = tr.penalty_unit_norm(raw, weight=0.01).item()
    assert got == pytest.approx(0.01 * ((4 - 1) ** 2 + 0) / 2)


def _loss_quat_dot_composite(pred, ref):
    """loss_quat_dot from the elementary ops, as the rollout once built it."""
    return ad.tmean(1.0 - ad.tsum(pred * Tensor(ref), axis=-1))


def _penalty_unit_norm_composite(raw, weight):
    """penalty_unit_norm from the elementary ops."""
    return ad.tmean(ad.square(ad.tsum(ad.square(raw), axis=-1) - 1.0)) * weight


@pytest.mark.parametrize("shape", [(8, 5), (3, 2, 7)])
def test_step_loss_nodes_match_composite(rng, shape):
    # one node each, bit for bit the composite's value and gradient, under
    # an upstream gradient that is not 1 as in a rollout's mean over frames
    pred, ref = random_unit_quats(rng, shape), random_unit_quats(rng, shape)
    raw = pred * rng.uniform(0.5, 1.5, size=shape + (1,))
    for fused, composite, x, arg in (
            (tr.loss_quat_dot, _loss_quat_dot_composite, pred, ref),
            (tr.penalty_unit_norm, _penalty_unit_norm_composite, raw, 0.03)):
        runs = []
        for op in (fused, composite):
            t = Tensor(x.copy(), requires_grad=True)
            out = op(t, arg)
            (out / 6.0).backward()
            runs.append((out.data, t.grad))
        (got, got_grad), (want, want_grad) = runs
        assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)
        leaf = Tensor(x, requires_grad=True)
        assert fused(leaf, arg)._parents == (leaf,)


def _free_run_chunks_reference(net, clips, skel, n, k, max_chunks):
    """free_run_chunks with two FK calls per chunk, as it once ran."""
    root = np.zeros((k, 3))
    for clip in clips:
        limit = clip.num_frames - n - k
        if limit < 0:
            continue
        starts = np.unique(np.linspace(0, limit, min(max_chunks, limit + 1), dtype=int))
        rots = clip.active_rotations
        for s in starts:
            pred = tr.free_run_predict(net, rots[s:s + n], k)
            yield (clip, s, forward_kinematics(skel, pred, root),
                   forward_kinematics(skel, rots[s + n:s + n + k], root))


@pytest.mark.parametrize("max_chunks", [8, 4])
@pytest.mark.parametrize("backbone,n", [("recurrent", 10), ("convolutional", 32)])
def test_free_run_chunks_match_per_chunk_fk(corpus, backbone, n, max_chunks):
    skel, clips = corpus
    k = 5
    # one clip too short to use and one with only three starts
    short = [MotionClip(skel, c.frame_rate, c.root_positions[:m], c.rotations[:m])
             for c, m in ((clips[0], n + k - 1), (clips[1], n + k + 2))]
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, backbone=backbone,
                                                   hidden=16, channels=16), seed=2)
    got = list(tr.free_run_chunks(net, clips + short, skel, n, k, max_chunks=max_chunks))
    want = list(_free_run_chunks_reference(net, clips + short, skel, n, k, max_chunks))
    assert len(got) == len(want) == 3 * max_chunks + 3
    for (clip, s, pred, ref), (want_clip, want_s, want_pred, want_ref) in zip(got, want):
        assert clip is want_clip and s == want_s
        assert pred.shape == (k, skel.num_joints, 3)
        assert np.array_equal(pred, want_pred) and np.array_equal(ref, want_ref)


def test_scheduled_sampling_extremes(corpus, rng):
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active,
                                                   hidden=16), seed=0)
    cfg = tr.TrainConfig(conditioning_frames=6, prediction_frames=3)
    rots = clips[0].active_rotations[None, :9]
    # identical rngs, p=1 vs p=0 must differ only through the feedback path
    l1 = tr.scheduled_sampling_rollout(net, rots, skel, cfg, p=1.0,
                                       rng=np.random.default_rng(0)).item()
    l0 = tr.scheduled_sampling_rollout(net, rots, skel, cfg, p=0.0,
                                       rng=np.random.default_rng(0)).item()
    assert np.isfinite(l1) and np.isfinite(l0)
    assert l1 != l0


def test_train_pose_history_and_log(tmp_path, corpus):
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active,
                                                   hidden=16), seed=0)
    cfg = tr.TrainConfig(epochs=2, conditioning_frames=6,
                         prediction_frames=2, batch_size=2, seed=1)
    log = tmp_path / "log.csv"
    hist = tr.train_pose(net, clips, skel, cfg, val_clips=clips,
                         log_path=log, validate_every=1)
    assert len(hist) == 2
    assert hist[0]["lr"] == cfg.lr0
    assert hist[1]["lr"] == cfg.lr0 * 0.999
    assert all(np.isfinite(h["train_loss"]) for h in hist)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epochs
    assert "epoch" in lines[0]
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, h in zip(rows, hist):
        norm, frac = float(row["grad_norm"]), float(row["clip_fraction"])
        assert np.isfinite(norm) and norm > 0 and 0.0 <= frac <= 1.0
        assert (norm, frac) == (h["grad_norm"], h["clip_fraction"])


def test_adam_step_returns_pre_clip_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    params = {k: np.zeros_like(g) for k, g in grads.items()}
    assert adam_step(params, grads, AdamState(), lr=1e-3, clip_norm=0.1) == 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_step_names_a_non_finite_gradient(bad):
    grads = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, bad]), "c": np.array([1.0])}
    params = {k: np.zeros_like(g) for k, g in grads.items()}
    state = AdamState()
    with pytest.raises(NumericalError, match="non-finite gradient for parameter 'b'"):
        adam_step(params, grads, state, lr=1e-3, clip_norm=1.0)
    assert state.step == 0 and not any(p.any() for p in params.values())


def test_adam_step_takes_finite_gradients_whose_squares_overflow():
    # the squares overflow although every gradient is finite: the norm is
    # still finite, and the step is clipped to a gradient of norm clip_norm
    grads = {"a": np.array([1e200, -1e200]), "b": np.array([0.5])}
    params = {k: np.ones_like(g) for k, g in grads.items()}
    state = AdamState()
    with np.errstate(over="ignore"):
        norm = adam_step(params, grads, state, lr=1e-3, clip_norm=1.0)
    assert norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert state.step == 1
    clipped = {k: m / (1.0 - 0.9) for k, m in state.m.items()}  # the first moment
    assert np.sqrt(sum(np.sum(g * g) for g in clipped.values())) == pytest.approx(1.0)
    assert np.allclose(clipped["a"], [np.sqrt(0.5), -np.sqrt(0.5)])
    assert np.allclose(params["a"], [1.0 - 1e-3, 1.0 + 1e-3])


def test_adam_step_clips_finite_gradients_whose_norm_overflows():
    # the norm 2e308 is beyond the largest float: it is returned as inf,
    # and the step is still clipped to a gradient of norm clip_norm, with
    # no overflow warning
    params, state, clip = {"a": np.zeros(4)}, AdamState(), 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = adam_step(params, {"a": np.full(4, 1e308)}, state, lr=1e-3, clip_norm=clip)
    assert norm == np.inf and state.step == 1
    assert np.linalg.norm(state.m["a"]) == pytest.approx((1.0 - BETA1) * clip, rel=1e-12)
    assert np.allclose(params["a"], -1e-3)  # lr, up to Adam's eps


# the conv backbone conditions on its whole 32-frame receptive field
BACKBONES = pytest.mark.parametrize("backbone,n", [("recurrent", 6), ("convolutional", 32)],
                                    ids=["recurrent", "convolutional"])


@BACKBONES
def test_training_is_deterministic(corpus, backbone, n):
    skel, clips = corpus
    cfg = tr.TrainConfig(epochs=3, conditioning_frames=n,
                         prediction_frames=2, batch_size=2, seed=4)
    nets = []
    for _ in range(2):
        net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
            skel.num_active, hidden=16, channels=16, backbone=backbone), seed=2)
        tr.train_pose(net, clips, skel, cfg)
        nets.append(net)
    for k in nets[0].params:
        assert np.array_equal(nets[0].params[k].data, nets[1].params[k].data)


@BACKBONES
def test_checkpoint_resume_continues_exactly(tmp_path, corpus, backbone, n):
    skel, clips = corpus
    net_cfg = mo.PoseNetworkConfig.desk(skel.num_active, hidden=16, channels=16,
                                        backbone=backbone)
    cfg = tr.TrainConfig(epochs=4, conditioning_frames=n,
                         prediction_frames=2, batch_size=2, seed=4)
    full = mo.PoseNetwork(net_cfg, seed=2)
    tr.train_pose(full, clips, skel, cfg)

    half_cfg = tr.TrainConfig(epochs=2, conditioning_frames=n,
                              prediction_frames=2, batch_size=2, seed=4)
    part = mo.PoseNetwork(net_cfg, seed=2)
    ck = tmp_path / "part.ckpt"
    tr.train_pose(part, clips, skel, half_cfg, checkpoint_path=ck)

    resumed, _, stored_cfg, resume = tr.read_pose_checkpoint(mo.load_checkpoint(ck), resume=True)
    assert stored_cfg == half_cfg and resume["start_epoch"] == 2
    tr.train_pose(resumed, clips, skel, cfg, **resume)
    for k in full.params:
        assert np.array_equal(full.params[k].data, resumed.params[k].data), k


def test_free_run_predict_shapes_both_backbones(corpus):
    skel, clips = corpus
    rots = clips[0].active_rotations
    for backbone, n in (("recurrent", 10), ("convolutional", 32)):
        net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
            skel.num_active, hidden=16, channels=16, backbone=backbone), seed=0)
        pred = tr.free_run_predict(net, rots[:n], 5)
        assert pred.shape == (5, skel.num_active, 4)
        assert np.abs(np.linalg.norm(pred, axis=-1) - 1).max() < 1e-9
        with pytest.raises(ValueError, match="conditioning frame"):
            tr.free_run_predict(net, rots[:0], 5)


@pytest.mark.parametrize("horizon", [0, -3])
def test_free_run_predict_rejects_horizon_below_one(corpus, horizon):
    # the conditioning output alone would come back as one frame
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=8), seed=0)
    with pytest.raises(ValueError, match=f"at least one step to predict, got {horizon}"):
        tr.free_run_predict(net, clips[0].active_rotations[:4], horizon)


@pytest.mark.parametrize("horizon", [1, 5])
@pytest.mark.parametrize("backbone,weight,n", [("recurrent", "gru1.b", 10),
                                               ("recurrent", "head.b", 10),
                                               ("convolutional", "conv3.b", 32),
                                               ("convolutional", "conv4.b", 32)])
def test_free_run_predict_raises_on_non_finite_weights(corpus, backbone, weight, n, horizon):
    # a NaN in the head's weights leaves the window's state finite, so
    # only the check of the returned chunk sees it
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, channels=16, backbone=backbone), seed=0)
    net.params[weight].data[0] = np.nan
    with pytest.raises(NumericalError):
        tr.free_run_predict(net, clips[0].active_rotations[:n], horizon)


def test_positional_loss_value(rng, corpus):
    skel, clips = corpus
    q = clips[0].active_rotations[:3]
    from quatmotion.kinematics import forward_kinematics
    ref = forward_kinematics(skel, q, np.zeros((3, 3)))
    loss = tr.loss_positional(Tensor(q), ref, skel).item()
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_pace_training_example_and_train(corpus, gait):
    skel, clip, _ = gait
    feats = lo.extract_gait_features(clip, skel.names.index("l_foot"),
                                     skel.names.index("r_foot"))
    curv, targets, spline = lo.pace_training_example(clip, feats)
    assert curv.shape[0] == targets.shape[0] == spline.num_segments
    assert np.abs(np.linalg.norm(targets[:, :2], axis=-1) - 1).max() < 1e-9
    assert (targets[:, 3] >= 0).all()

    net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    cfg = tr.TrainConfig(epochs=40, seed=0)
    hist = lo.train_pace(net, [(curv, targets)], cfg)
    assert hist[-1]["mae"] < hist[0]["mae"]


def test_euler_error_matches_two_conversions(rng):
    q = random_unit_quats(rng, (6, 5))
    r = random_unit_quats(rng, (6, 5))
    q[0, 1] = r[1, 3] = [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0]  # gimbal lock in xyz
    orders = ["xyz", "zyx", "xyz", "yzx", "zyx"]
    # the two-call form: prediction and reference converted separately
    want = np.empty((6, 5, 3))
    for order in set(orders):
        joints = np.array([a for a, o in enumerate(orders) if o == order])
        p = rm.quat_to_euler(q[:, joints], order).angles
        e = rm.quat_to_euler(r[:, joints], order).angles
        want[:, joints] = rm.wrap_angle(p - e)
    want = np.linalg.norm(want.reshape(6, -1), axis=-1)
    assert np.array_equal(tr.euler_error(q, r, orders), want)


def _tiny_train(corpus, log, epochs=1, **kw):
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=8), seed=0)
    cfg = tr.TrainConfig(epochs=epochs, conditioning_frames=6, prediction_frames=2,
                         batch_size=3, seed=1)
    return tr.train_pose(net, clips, skel, cfg, log_path=log, **kw)


def test_fresh_training_starts_a_new_log(tmp_path, corpus):
    log = tmp_path / "log.csv"
    _tiny_train(corpus, log)
    _tiny_train(corpus, log)
    lines = log.read_text().splitlines()
    assert lines == [",".join(tr.LOG_COLUMNS), lines[1]]


def test_resume_rejects_log_with_other_header(tmp_path, corpus):
    log = tmp_path / "log.csv"
    old = b"epoch,lr,p,train_loss,val_position_loss,val_velocity_loss,wall_seconds\r\n0,1,1,1,1,1,1\r\n"
    log.write_bytes(old)
    with pytest.raises(ValueError, match="log.csv"):
        _tiny_train(corpus, log, epochs=2, start_epoch=1)
    assert log.read_bytes() == old


def test_resume_appends_and_writes_missing_header(tmp_path, corpus):
    log = tmp_path / "log.csv"
    _tiny_train(corpus, log, epochs=2, start_epoch=1)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(tr.LOG_COLUMNS) and [r[0] for r in rows[1:]] == ["1"]
    _tiny_train(corpus, log, epochs=3, start_epoch=2)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(tr.LOG_COLUMNS) and [r[0] for r in rows[1:]] == ["1", "2"]


@pytest.mark.parametrize("fail_at", range(4))
def test_crashed_save_resumes_to_an_uninterrupted_run(tmp_path, corpus, monkeypatch, fail_at):
    skel, clips = corpus
    net_cfg = mo.PoseNetworkConfig.desk(skel.num_active, hidden=8)
    cfg = tr.TrainConfig(epochs=4, conditioning_frames=6, prediction_frames=2,
                         batch_size=3, seed=1)
    full = mo.PoseNetwork(net_cfg, seed=0)
    tr.train_pose(full, clips, skel, cfg)

    log, ck = tmp_path / "log.csv", tmp_path / "pose.ckpt"
    real_replace, calls = os.replace, []

    def failing_replace(src, dst):
        # one checkpoint per epoch: the save at epoch fail_at fails after
        # its temporary file is written
        calls.append(dst)
        if len(calls) == fail_at + 1:
            raise OSError("disk went away")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk went away"):
        tr.train_pose(mo.PoseNetwork(net_cfg, seed=0), clips, skel, cfg,
                      log_path=log, checkpoint_path=ck)
    monkeypatch.setattr(os, "replace", real_replace)

    if fail_at == 0:  # no checkpoint yet: the run starts over
        net, resume = mo.PoseNetwork(net_cfg, seed=0), {}
    else:
        net, _, _, resume = tr.read_pose_checkpoint(mo.load_checkpoint(ck), resume=True)
        assert resume["start_epoch"] == fail_at
    tr.train_pose(net, clips, skel, cfg, log_path=log, checkpoint_path=ck, **resume)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(tr.LOG_COLUMNS) and [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "pose.ckpt"]
    for k in full.params:
        assert np.array_equal(full.params[k].data, net.params[k].data), k


def test_resume_cuts_a_torn_last_row(tmp_path, corpus):
    log = tmp_path / "log.csv"
    _tiny_train(corpus, log, epochs=2)
    log.write_bytes(log.read_bytes() + b"2,0.001,1.0,0.5")  # a row cut short
    _tiny_train(corpus, log, epochs=3, start_epoch=2)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(len(r) == len(tr.LOG_COLUMNS) for r in rows)


@pytest.mark.parametrize("kw, batch", [
    (dict(), 1), (dict(include_translations=True, include_controls=True), 1),
    (dict(backbone="convolutional"), 1), (dict(mode="absolute", parameterization="expmap"), 1),
    (dict(mode="absolute", parameterization="euler-yzx"), 1),
    (dict(include_translations=True, include_controls=True), 3),
    (dict(backbone="convolutional"), 3)],
    ids=["gru-velocity", "gru-side-inputs", "conv-velocity", "gru-expmap-absolute",
         "gru-euler-absolute", "gru-side-inputs-batch3", "conv-velocity-batch3"])
def test_free_run_off_the_tape_is_free_run_on_it(corpus, kw, batch):
    # the same fed-back loop with the tape recorded gives the same bytes
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=16, channels=16,
                                                   **kw), seed=0)
    n = net.config.receptive_field if net.config.backbone == "convolutional" else 10
    prefix = np.stack([clips[0].active_rotations[5 + 9 * i:5 + 9 * i + n] for i in range(batch)])
    enc = mo.encode_pose(prefix, net.config.parameterization)
    outs = list(tr._autoregress(net, enc, prefix, n, 8))
    assert outs[-1]["quats"]._parents
    keys = [k for k in ("quats", "translations") if outs[0][k] is not None]
    taped = [np.stack([out[k].data for out in outs]) for k in keys]
    with ad.no_grad():
        free = [np.stack([out[k] for out in tr._autoregress(net, enc, prefix, n, 8)])
                for k in keys]
    assert [a.tobytes() for a in free] == [a.tobytes() for a in taped]
    if batch == 1:
        assert tr.free_run_predict(net, prefix[0], 8).tobytes() == taped[0][:, 0].tobytes()


def _window_recompute(net, prefix, horizon):
    """Conv free-run as it ran before the streaming step: every frame
    reruns forward_window on the last receptive-field frames."""
    rf = net.config.receptive_field
    window = list(prefix)
    preds = []
    for _ in range(horizon):
        out = net.forward_window(Tensor(np.stack(window[-rf:])[None].reshape(1, rf, -1)),
                                 prev_quats=Tensor(window[-1][None]))
        preds.append(out["quats"].data[0])
        window.append(preds[-1])
    return np.stack(preds)


def test_streaming_conv_free_run_matches_window_recompute(corpus):
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, channels=16, backbone="convolutional"), seed=0)
    prefix = clips[0].active_rotations[:40]
    got = tr.free_run_predict(net, prefix, 100)
    want = _window_recompute(net, prefix, 100)
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("backbone, n", [("recurrent", 10), ("convolutional", 32)])
def test_free_run_records_no_tape(corpus, backbone, n):
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, channels=16, backbone=backbone), seed=0)
    calls = []
    for name in ("step", "forward_window"):
        method = getattr(net, name)
        setattr(net, name, lambda *a, _m=method, _n=name, **k:
                calls.append((_n, _m(*a, **k))) or calls[-1][1])
    tr.free_run_predict(net, clips[0].active_rotations[:n], 6)
    assert [name for name, _ in calls] == ["forward_window"] + ["step"] * 5
    # off the tape every output is a plain array, the conv state's chunks
    # (each layer's (chunks, at)) included
    values = [v for _, out in calls for v in out.values() if v is not None]
    arrays = [a for v in values for s in (v if isinstance(v, list) else [v])
              for a in (s[0] if isinstance(s, tuple) else [s])]
    assert arrays and all(type(a) is np.ndarray for a in arrays)

    # the switch is off again: a rollout after free-run records its tape
    rots = clips[0].active_rotations[None, :n + 2]
    cfg = tr.TrainConfig(conditioning_frames=n, prediction_frames=2)
    grads = []
    for _ in range(2):
        net.zero_grad()
        calls.clear()
        tr.scheduled_sampling_rollout(net, rots, skel, cfg, 0.5,
                                      np.random.default_rng(0)).backward()
        assert [name for name, _ in calls] == ["forward_window", "step"]
        grads.append(net.grads())
        tr.free_run_predict(net, clips[0].active_rotations[:n], 6)
    assert grads[0].keys() == net.params.keys()
    for k in grads[0]:
        assert np.array_equal(grads[0][k], grads[1][k]), k


# train_pose configs whose parameters and history are pinned by a golden
# fingerprint: (name, PoseNetworkConfig.desk overrides, TrainConfig overrides)
FINGERPRINTS = [
    ("gru-quaternion-velocity", {}, {"loss": "quat_dot"}),
    ("gru-euler-absolute", {"mode": "absolute", "parameterization": "euler-xyz"},
     {"loss": "euler_l1"}),
    ("gru-expmap-positional", {"mode": "absolute", "parameterization": "expmap"},
     {"loss": "positional"}),
    ("gru-sides", {"include_controls": True, "include_translations": True},
     {"loss": "quat_dot"}),
    ("conv-quaternion-velocity", {"backbone": "convolutional"},
     {"loss": "quat_dot", "conditioning_frames": 32}),
]
FINGERPRINT_FILE = Path(__file__).with_name("train_fingerprint.json")


def _train_fingerprint(corpus, net_kw, train_kw):
    """Per-array (sum, norm) of the parameters after a short train_pose
    run, and its per-epoch loss, gradient-norm and validation history.
    The caller sets ``training.SAMPLING_DECAY`` to 0.5, which lets scheduled
    sampling feed predictions back."""
    skel, clips = corpus
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=16, channels=16,
                                                   **net_kw), seed=3)
    kw = {"epochs": 4, "conditioning_frames": 6, "prediction_frames": 3, "batch_size": 2,
          "seed": 5, **train_kw}
    hist = tr.train_pose(net, clips, skel, tr.TrainConfig(**kw), validate_every=1)
    params = {k: [float(a.sum()), float(np.sqrt(np.sum(a * a)))]
              for k, a in sorted(net.param_arrays().items())}
    keys = ("train_loss", "grad_norm", "val_position_loss", "val_velocity_loss")
    return {"params": params, "history": {k: [h[k] for h in hist] for k in keys}}


@pytest.mark.parametrize("name,net_kw,train_kw", FINGERPRINTS, ids=[f[0] for f in FINGERPRINTS])
def test_train_pose_fingerprint(corpus, monkeypatch, name, net_kw, train_kw):
    want = json.loads(FINGERPRINT_FILE.read_text())[name]
    monkeypatch.setattr(tr, "SAMPLING_DECAY", 0.5)
    got = _train_fingerprint(corpus, net_kw, train_kw)
    assert got["params"].keys() == want["params"].keys()
    # conv training is pinned exactly; GRU up to summation order, which
    # Adam amplifies in near-zero gradients
    rtol = 0.0 if net_kw.get("backbone") == "convolutional" else 1e-9
    for section in ("params", "history"):
        for key, values in want[section].items():
            np.testing.assert_allclose(got[section][key], values, rtol=rtol, atol=0,
                                       err_msg=f"{name} {section} {key}")


def _pace_targets_reference(clip, features, spline, segment_length):
    """pace_training_example's targets, one segment at a time, and the
    number of segments no frame falls in."""
    ground = clip.root_positions[:, [0, 2]]
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(ground, axis=0), axis=1))])
    seg = np.clip((arc / segment_length).astype(int), 0, spline.num_segments - 1)
    targets = np.zeros((spline.num_segments, 4))
    last, empty = None, 0
    for si in range(spline.num_segments):
        frames = np.flatnonzero(seg == si)
        if len(frames) == 0:
            empty += 1
            if last is not None:
                targets[si] = last
            continue
        rel = lo._rotate2(features.facing[frames], spline.tangents[si][None] * [1.0, -1.0])
        fmean = rel.mean(axis=0)
        norm = np.linalg.norm(fmean)
        targets[si, :2] = fmean / norm if norm > 1e-9 else (1.0, 0.0)
        targets[si, 2] = features.frequency[frames].mean()
        targets[si, 3] = features.local_speed[frames].mean()
        last = targets[si]
    return targets, empty


def test_pace_training_example_matches_reference_loop(gait):
    from dataclasses import replace
    skel, clip, feats = gait
    rng = np.random.default_rng(3)
    t = clip.num_frames
    # a curving root path with per-frame steps of 0 to 0.1 and random
    # per-frame features; segment 0 holds frames 0 and 1 only, whose
    # facings cancel
    heading = np.cumsum(rng.normal(scale=0.1, size=t))
    step = rng.uniform(0.0, 0.1, size=t)
    step[1:3] = 0.0, 0.05
    ground = np.cumsum(step[:, None] * np.stack([np.cos(heading), np.sin(heading)], 1), 0)
    curved = replace(clip, root_positions=np.stack([ground[:, 0], clip.root_positions[:, 1],
                                                    ground[:, 1]], 1))
    facing = rng.normal(size=(t, 2))
    facing[1] = -facing[0]
    feats = replace(feats, facing=facing / np.linalg.norm(facing, axis=-1, keepdims=True),
                    frequency=rng.uniform(0.5, 2.0, size=t),
                    local_speed=rng.uniform(0.0, 2.0, size=t))
    # 0.03 leaves segments no frame falls in; with 0.6 segments hold 8 or
    # more frames, whose 1-D means numpy sums pairwise, not in frame order
    for length, rtol in ((0.03, 0.0), (0.6, 1e-14)):
        curv, got, spline = lo.pace_training_example(curved, feats, segment_length=length)
        want, empty = _pace_targets_reference(curved, feats, spline, length)
        assert np.array_equal(curv, spline.curvatures)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
        if rtol == 0.0:
            assert empty > 0
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got[0, :2], [1.0, 0.0])


# -- the shared epoch loop ------------------------------------------------------

def _pace_examples(gait):
    skel, clip, _ = gait
    feats = lo.extract_gait_features(clip, skel.names.index("l_foot"), skel.names.index("r_foot"))
    curv, targets, _ = lo.pace_training_example(clip, feats)
    return [(curv, targets), (curv[:7], targets[:7]), (curv[3:], targets[3:])]


def _train_pace(gait, variant, **kw):
    net = lo.PaceNetwork(lo.PaceNetworkConfig(variant=variant), seed=0)
    return net, lo.train_pace(net, _pace_examples(gait), tr.TrainConfig(epochs=6, seed=2), **kw)


def _train_position(corpus):
    from quatmotion.evaluation import PositionNetwork, train_position_network
    skel, clips = corpus
    net = PositionNetwork(skel.num_joints, hidden=16, seed=0)
    return net, train_position_network(net, clips, skel, tr.TrainConfig(
        epochs=3, conditioning_frames=6, prediction_frames=3, batch_size=2, seed=1))


@pytest.mark.parametrize("name", ["pace-bidirectional", "pace-online", "position"])
def test_pace_and_position_fingerprint(corpus, gait, name):
    want = json.loads(FINGERPRINT_FILE.read_text())[name]
    if name == "position":
        net, hist = _train_position(corpus)
        key = "train_loss"
    else:
        net, hist = _train_pace(gait, name.split("-")[1])
        key = "mae"
    params = {k: [float(a.sum()), float(np.sqrt(np.sum(a * a)))]
              for k, a in sorted(net.param_arrays().items())}
    assert params.keys() == want["params"].keys()
    # GRU networks: pinned up to summation order, as train_pose's are
    for k, values in want["params"].items():
        np.testing.assert_allclose(params[k], values, rtol=1e-9, atol=0, err_msg=k)
    np.testing.assert_allclose([h[key] for h in hist], want["history"][key], rtol=1e-9, atol=0)


def test_pace_log_has_one_row_per_epoch(tmp_path, gait):
    log = tmp_path / "log.csv"
    _, hist = _train_pace(gait, "bidirectional", log_path=log)
    want = "epoch,lr,mae\r\n" + "".join(f"{h['epoch']},{h['lr']!r},{h['mae']!r}\r\n"
                                        for h in hist)
    assert log.read_bytes().decode() == want


def test_each_trainer_steps_once_per_batch(monkeypatch, corpus, gait):
    from quatmotion.motiondata import EpisodeSampler
    events = []

    def record(name, fn):
        return lambda *a, **k: events.append(name) or fn(*a, **k)

    monkeypatch.setattr(Tensor, "backward", record("backward", Tensor.backward))
    monkeypatch.setattr(tr, "adam_step", record("adam_step", tr.adam_step))
    monkeypatch.setattr(EpisodeSampler, "sample", record("sample", EpisodeSampler.sample))
    skel, clips = corpus  # 3 clips: batches of 2 and 1 per epoch

    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=8), seed=0)
    tr.train_pose(net, clips, skel, tr.TrainConfig(epochs=2, conditioning_frames=6,
                                                   prediction_frames=2, batch_size=2))
    assert events == ["sample", "backward", "adam_step"] * 4
    events.clear()
    _train_position(corpus)
    assert events == ["sample", "backward", "adam_step"] * 6
    events.clear()
    _train_pace(gait, "online")
    assert events == ["backward", "adam_step"] * 6 * 3


@pytest.mark.parametrize("fail_epoch", [0, 1, 4])
def test_failed_pace_run_keeps_the_rows_of_finished_epochs(tmp_path, gait, monkeypatch,
                                                           fail_epoch):
    real, calls = tr.adam_step, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > fail_epoch * 3:  # three examples per epoch
            raise NumericalError("non-finite gradient")
        return real(*args, **kwargs)

    monkeypatch.setattr(tr, "adam_step", failing)
    log = tmp_path / "log.csv"
    with pytest.raises(NumericalError):
        _train_pace(gait, "bidirectional", log_path=log)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(lo.PACE_LOG_COLUMNS)
    assert [r[0] for r in rows[1:]] == [str(e) for e in range(fail_epoch)]
