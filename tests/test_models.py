import hashlib
import os
from dataclasses import asdict

import numpy as np
import pytest

from quatmotion import autodiff as ad
from quatmotion import locomotion as lo
from quatmotion import models as mo
from quatmotion import rotmath as rm
from quatmotion import training as tr
from quatmotion.autodiff import Tensor
from quatmotion.locomotion import fit_spline
from quatmotion.motiondata import MotionClip

from conftest import SPINE_BEND, freeze_joint, random_unit_quats


def count_params(net):
    return sum(v.size for v in net.param_arrays().values())


@pytest.mark.parametrize("kwargs", [
    {"mode": "velocity"},
    {"backbone": "convolutional"},
    {"include_controls": True, "include_translations": True},
])
def test_param_count_matches_closed_form(kwargs):
    cfg = mo.PoseNetworkConfig.desk(24, **kwargs)
    net = mo.PoseNetwork(cfg, seed=0)
    assert count_params(net) == mo.expected_param_count(cfg)


def _init_digest(net):
    h = hashlib.sha256()
    for name in sorted(net.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(net.params[name].data, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# first 16 hex digits of sha256 over sorted names and float64 bytes, seed 3
@pytest.mark.parametrize("build,digest", [
    (lambda: mo.PoseNetwork(mo.PoseNetworkConfig.desk(24), seed=3), "896c118c8a683442"),
    (lambda: mo.PoseNetwork(mo.PoseNetworkConfig.desk(24, backbone="convolutional"), seed=3),
     "3917b082cc1f685e"),
    (lambda: mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        24, include_controls=True, include_translations=True), seed=3), "119ddffa4512763e"),
    (lambda: mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        24, mode="absolute", parameterization="expmap"), seed=3), "9ac7d6c73c011559"),
    (lambda: lo.PaceNetwork(lo.PaceNetworkConfig(), seed=3), "93ba51e6bf1fa219"),
    (lambda: lo.PaceNetwork(lo.PaceNetworkConfig(variant="online"), seed=3), "1c93fca7dbdf45cf"),
], ids=["gru", "conv", "controls_translations", "absolute_expmap", "pace_bidirectional",
        "pace_online"])
def test_initial_parameters_unchanged(build, digest):
    assert _init_digest(build()) == digest


@pytest.mark.parametrize("build", [
    lambda **kw: mo.PoseNetwork(mo.PoseNetworkConfig.desk(3, hidden=4), **kw),
    lambda **kw: lo.PaceNetwork(lo.PaceNetworkConfig(hidden=4), **kw),
], ids=["pose", "pace"])
@pytest.mark.parametrize("edit", ["missing", "extra", "misshaped"])
def test_params_must_fit_the_declaration(build, edit):
    params = {k: ad.parameter(v) for k, v in build(seed=1).param_arrays().items()}
    assert build(params=dict(params)).params.keys() == params.keys()
    if edit == "missing":
        del params["head.w"]
    elif edit == "extra":
        params["head.x"] = ad.parameter(np.zeros(2))
    else:
        params["head.w"] = ad.parameter(params["head.w"].data[:-1])
    with pytest.raises(ValueError, match="stored arrays do not fit the config: head"):
        build(params=params)


def test_full_scale_param_count():
    cfg = mo.PoseNetworkConfig(32)
    net = mo.PoseNetwork(cfg, seed=0)
    assert count_params(net) == mo.expected_param_count(cfg)
    assert mo.expected_param_count(cfg) > 9_000_000


def test_decoders_match_rotmath(rng):
    for param in mo.PARAMETERIZATIONS:
        q = random_unit_quats(rng, (6, 3))
        q[q[..., 0] < 0] *= -1
        flat = mo.encode_pose(q, param)
        back = mo.decode_pose_t(Tensor(flat.reshape(6, -1)), 3, param).data
        back = back / np.linalg.norm(back, axis=-1, keepdims=True)
        back[back[..., 0] < 0] *= -1
        if param == "quaternion":
            assert np.abs(back - q).max() < 1e-12
        else:
            assert np.abs(back - q).max() < 1e-9


def test_step_outputs_unit_quats(rng):
    cfg = mo.PoseNetworkConfig.desk(5, hidden=16)
    net = mo.PoseNetwork(cfg, seed=0)
    q = random_unit_quats(rng, (2, 5))
    pose = mo.encode_pose(q, cfg.parameterization).reshape(2, -1)
    out = net.step(Tensor(pose), net.init_state(2), prev_quats=q)
    norms = np.linalg.norm(out["quats"].data, axis=-1)
    assert np.abs(norms - 1).max() < 1e-12


def test_velocity_mode_identity_raw_is_identity_map(rng):
    cfg = mo.PoseNetworkConfig.desk(4, hidden=8, mode="velocity")
    net = mo.PoseNetwork(cfg, seed=0)
    # zero the head so raw output decodes to the identity quaternion offset
    net.params["head.w"].data[:] = 0
    net.params["head.b"].data[:] = 0
    net.params["head.b"].data[0::4] = 1.0
    q = random_unit_quats(rng, (1, 4))
    pose = mo.encode_pose(q, "quaternion").reshape(1, -1)
    out = net.step(Tensor(pose), net.init_state(1), prev_quats=q)
    assert np.abs(out["quats"].data - q).max() < 1e-12


def test_velocity_mode_requires_quaternion():
    with pytest.raises(ValueError):
        mo.PoseNetworkConfig(4, mode="velocity", parameterization="expmap")


@pytest.mark.parametrize("side", ["include_controls", "include_translations"])
def test_side_inputs_require_recurrent_backbone(side):
    with pytest.raises(ValueError, match="recurrent backbone"):
        mo.PoseNetworkConfig(4, backbone="convolutional", **{side: True})
    assert getattr(mo.PoseNetworkConfig(4, **{side: True}), side)


def test_stored_filter_width_loads_only_at_2(tmp_path):
    # older checkpoints store the two taps of every layer as filter_width
    cfg = mo.PoseNetworkConfig.desk(4, channels=16, backbone="convolutional")
    arrays = mo.PoseNetwork(cfg, seed=0).param_arrays()
    for width in (2, 3):
        path = tmp_path / f"width{width}.ckpt"
        mo.save_checkpoint(path, "pose", {**asdict(cfg), "filter_width": width}, arrays)
        ck = mo.load_checkpoint(path)
        if width != 2:
            with pytest.raises(ValueError, match="filter_width"):
                tr.read_pose_checkpoint(ck)[0]
            continue
        back = tr.read_pose_checkpoint(ck)[0]
        assert back.config == cfg
        assert count_params(back) == mo.expected_param_count(cfg) == 2640


def test_stored_conv_layers_loads_only_at_5(tmp_path):
    # checkpoints written while the layer count was a config field store it
    cfg = mo.PoseNetworkConfig.desk(4, channels=16, backbone="convolutional")
    arrays = mo.PoseNetwork(cfg, seed=0).param_arrays()
    for layers in (5, 4, 6):
        path = tmp_path / f"layers{layers}.ckpt"
        mo.save_checkpoint(path, "pose", {**asdict(cfg), "conv_layers": layers}, arrays)
        ck = mo.load_checkpoint(path)
        if layers != 5:
            with pytest.raises(ValueError, match="conv_layers must be 5"):
                tr.read_pose_checkpoint(ck)[0]
            continue
        assert tr.read_pose_checkpoint(ck)[0].config == cfg
    with pytest.raises(TypeError):
        mo.PoseNetworkConfig(4, backbone="convolutional", conv_layers=3)


def test_stored_gru_layers_loads_only_at_2(tmp_path):
    # checkpoints written while the GRU depth was a config field store it
    cfg = mo.PoseNetworkConfig.desk(4, hidden=8)
    arrays = mo.PoseNetwork(cfg, seed=0).param_arrays()
    for layers in (2, 1, 3):
        path = tmp_path / f"layers{layers}.ckpt"
        mo.save_checkpoint(path, "pose", {**asdict(cfg), "layers": layers}, arrays)
        ck = mo.load_checkpoint(path)
        if layers != 2:
            with pytest.raises(ValueError, match="layers must be 2"):
                tr.read_pose_checkpoint(ck)[0]
            continue
        back = tr.read_pose_checkpoint(ck)[0]
        assert back.config == cfg
        assert count_params(back) == mo.expected_param_count(cfg)
    with pytest.raises(TypeError):
        mo.PoseNetworkConfig(4, layers=3)


def test_conv_receptive_field_is_32(rng):
    cfg = mo.PoseNetworkConfig.desk(4, channels=16, backbone="convolutional")
    assert cfg.receptive_field == 32
    net = mo.PoseNetwork(cfg, seed=0)
    q = random_unit_quats(rng, (1, 40, 4))
    pose = mo.encode_pose(q, "quaternion").reshape(1, 40, -1)
    base = net.forward_window(Tensor(pose), prev_quats=q[:, -1])["quats"].data

    for lag, sensitive in ((1, True), (31, True), (32, False), (35, False)):
        bumped = pose.copy()
        bumped[:, -1 - lag] += 0.5
        got = net.forward_window(Tensor(bumped),
                                 prev_quats=q[:, -1])["quats"].data
        changed = np.abs(got - base).max() > 1e-12
        assert changed == sensitive, f"lag {lag}"


def test_checkpoint_round_trip(tmp_path, rng):
    cfg = mo.PoseNetworkConfig.desk(5, hidden=16)
    net = mo.PoseNetwork(cfg, seed=3)
    path = tmp_path / "net.ckpt"
    mo.save_checkpoint(path, "pose", cfg.__dict__,
                       net.param_arrays(), {"note": 1})
    ck = mo.load_checkpoint(path)
    assert ck["kind"] == "pose"
    assert ck["meta"]["note"] == 1
    back = tr.read_pose_checkpoint(ck)[0]
    for k, v in net.param_arrays().items():
        assert np.array_equal(back.params[k].data, v)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        mo.load_checkpoint(p)


def test_checkpoint_truncated_names_file(tmp_path):
    cfg = mo.PoseNetworkConfig.desk(5, hidden=16)
    path = tmp_path / "net.ckpt"
    mo.save_checkpoint(path, "pose", cfg.__dict__,
                       mo.PoseNetwork(cfg, seed=3).param_arrays())
    blob = path.read_bytes()
    for cut in (6, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="net.ckpt: truncated"):
            mo.load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous(tmp_path):
    path = tmp_path / "net.ckpt"
    mo.save_checkpoint(path, "pose", {}, {"a": np.ones(3)})
    # "b" fails to convert after the header and "a" are written
    with pytest.raises(ValueError):
        mo.save_checkpoint(path, "pose", {}, {"a": np.zeros(3), "b": "x"})
    assert np.array_equal(mo.load_checkpoint(path)["arrays"]["a"], np.ones(3))
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


def test_checkpoint_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "net.ckpt"
    mo.save_checkpoint(path, "pose", {}, {"a": np.ones(3)})

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        mo.save_checkpoint(path, "pose", {}, {"a": np.zeros(3)})
    monkeypatch.undo()
    assert np.array_equal(mo.load_checkpoint(path)["arrays"]["a"], np.ones(3))
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


@pytest.mark.parametrize("batch,inputs,hidden", [(1, 20, 16), (8, 20, 16), (1, 1, 30)],
                         ids=["B=1", "B=8", "pace"])
def test_fused_gru_cell_matches_composite(rng, batch, inputs, hidden):
    x, h = Tensor(rng.normal(size=(batch, inputs))), Tensor(rng.normal(size=(batch, hidden)))
    wx, wh = Tensor(rng.normal(size=(inputs, 3 * hidden))), Tensor(rng.normal(size=(hidden, 3 * hidden)))
    b = Tensor(rng.normal(size=3 * hidden))
    # the cell written out in tape ops
    gx = x @ wx + b
    gh = h @ wh
    r = ad.sigmoid(gx[..., :hidden] + gh[..., :hidden])
    z = ad.sigmoid(gx[..., hidden:2 * hidden] + gh[..., hidden:2 * hidden])
    n = ad.tanh(gx[..., 2 * hidden:] + r * gh[..., 2 * hidden:])
    want = (1.0 - z) * n + z * h
    assert np.array_equal(ad.gru_cell(x, h, wx, wh, b).data, want.data)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_pose_step_adds_one_tape_node_per_gru_layer(rng, monkeypatch, layers):
    # the depth is fixed at GRU_LAYERS, but the stack is written for any depth
    monkeypatch.setattr(mo, "GRU_LAYERS", layers)
    cfg = mo.PoseNetworkConfig.desk(3, hidden=8, mode="absolute")
    net = mo.PoseNetwork(cfg, seed=0)
    assert count_params(net) == mo.expected_param_count(cfg)
    pose = Tensor(random_unit_quats(rng, (2, 3)).reshape(2, -1), requires_grad=True)
    state = net.init_state(2)
    assert len(state) == layers
    x = pose
    for layer, h in enumerate(net.step(pose, state)["state"]):
        p = [net.params[f"gru{layer}.{k}"] for k in ("wx", "wh", "b")]
        assert h._parents == (x, state[layer], *p)
        x = h


def test_gru_parameter_names_unchanged():
    def gru(*prefixes):
        return {f"{p}.{k}" for p in prefixes for k in ("wx", "wh", "b", "h0")}

    head = {"head.w", "head.b"}
    pose = mo.PoseNetwork(mo.PoseNetworkConfig.desk(3, hidden=4), seed=0)
    assert set(pose.params) == gru("gru0", "gru1") | head
    pace = lo.PaceNetwork(lo.PaceNetworkConfig(hidden=4), seed=0)
    assert set(pace.params) == gru("fwd", "bwd") | head
    online = lo.PaceNetwork(lo.PaceNetworkConfig(hidden=4, variant="online"), seed=0)
    assert set(online.params) == gru("fwd") | head


def test_pace_checkpoint_round_trip(tmp_path, rng):
    cfg = lo.PaceNetworkConfig(hidden=7, variant="online", delay=2)
    net = lo.PaceNetwork(cfg, seed=1)
    path = tmp_path / "pace.ckpt"
    mo.save_checkpoint(path, "pace", asdict(cfg), net.param_arrays())
    back = lo.pace_network_from_checkpoint(mo.load_checkpoint(path))
    assert back.config == cfg
    curv = rng.normal(scale=0.2, size=9)
    assert np.array_equal(back.forward(curv)["raw"].data, net.forward(curv)["raw"].data)


def test_pace_bidirectional_shapes(rng):
    net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    curv = rng.normal(scale=0.2, size=17)
    out = net.forward(curv)
    assert out["facing"].data.shape == (17, 2)
    assert np.abs(np.linalg.norm(out["facing"].data, axis=-1) - 1).max() < 1e-12
    assert out["frequency"].data.shape == (17,)
    assert out["speed"].data.shape == (17,)


def test_pace_online_is_causal_with_delay(rng):
    cfg = lo.PaceNetworkConfig(variant="online", delay=4)
    net = lo.PaceNetwork(cfg, seed=0)
    curv = rng.normal(scale=0.2, size=20)
    base = net.forward(curv)["speed"].data
    bumped = curv.copy()
    bumped[12] += 1.0
    got = net.forward(bumped)["speed"].data
    # segments more than `delay` before the bump cannot see it
    assert np.array_equal(got[:8], base[:8])
    assert np.abs(got[8:] - base[8:]).max() > 0


def test_generation_follows_spline(corpus):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, include_controls=True,
        include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60),
                                  np.zeros(60)], axis=1)[:, [0, 2, 1]],
                        segment_length=0.25)
    clip = lo.generate_locomotion(pose_net, pace_net, spline, clips[0],
                                  num_frames=50, frame_rate=25.0)
    assert clip.num_frames == 50
    assert np.isfinite(clip.rotations).all()
    assert np.abs(np.linalg.norm(clip.rotations[:, skel.active_indices],
                                 axis=-1) - 1).max() < 1e-9


def test_generation_divergence_guard(corpus):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, include_controls=True,
        include_translations=True), seed=0)
    # blow up the translation outputs of the head to force a runaway
    pose_dim = pose_net.config.pose_dim
    pose_net.params["head.b"].data[pose_dim:] = 1e6
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60),
                                  np.zeros(60)], axis=1)[:, [0, 2, 1]],
                        segment_length=0.25)
    with pytest.raises(lo.GenerationDivergedError):
        lo.generate_locomotion(pose_net, pace_net, spline, clips[0],
                               num_frames=200, frame_rate=25.0)


@pytest.mark.parametrize("output", [0, 2, 3], ids=["facing", "frequency", "speed"])
def test_generation_rejects_non_finite_pace_output(corpus, output):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=8, include_controls=True, include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    pace_net.params["head.b"].data[output] = np.nan
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60), np.zeros(60)], 1), 0.25)
    with pytest.raises(lo.GenerationDivergedError, match="pace network"):
        lo.generate_locomotion(pose_net, pace_net, spline, clips[0], 10, 25.0)


@pytest.mark.parametrize("frames,rate,init_frames,message", [
    (0, 25.0, 4, "at least 1 frame"), (-3, 25.0, 4, "at least 1 frame"),
    (10, 0.0, 4, "frame rate"), (10, float("nan"), 4, "frame rate"),
    (10, 50.0, 4, "frame rate"), (10, 25.0, 0, "init clip has no frames")])
def test_generation_rejects_bad_inputs(corpus, frames, rate, init_frames, message):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=8, include_controls=True, include_translations=True), seed=0)
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60), np.zeros(60)], 1), 0.25)
    assert clips[0].frame_rate == 25.0  # any other rate is not the init clip's
    with pytest.raises(ValueError, match=message):
        lo.generate_locomotion(pose_net, lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0), spline,
                               clips[0].slice(0, init_frames), frames, rate)


def test_generation_steps_once_per_frame_with_its_own_control(corpus, monkeypatch):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=8, include_controls=True, include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    pace_net.params["head.b"].data[2:] = 1.0  # 1 Hz at 1 unit/s: no two control rows equal
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60), np.zeros(60)], 1), 0.25)
    schedules, calls = [], []
    pace_schedule, step = lo._pace_schedule, mo.PoseNetwork.step

    def record_schedule(*args):
        schedules.append(pace_schedule(*args))
        return schedules[-1]

    def record_step(self, pose, state, **kw):
        out = step(self, pose, state, **kw)
        # generation runs off the tape: inputs and outputs are plain arrays
        calls.append((kw["prev_quats"][0], kw["controls"][0], out["quats"][0]))
        return out

    monkeypatch.setattr(lo, "_pace_schedule", record_schedule)
    monkeypatch.setattr(mo.PoseNetwork, "step", record_step)
    init = clips[0].slice(0, 6)
    lo.generate_locomotion(pose_net, pace_net, spline, init, 20, init.frame_rate)
    [(_, controls)] = schedules
    assert len(calls) == len(np.unique(controls, axis=0)) == 6 + 20
    # step g consumes frame g, an init frame or the step before's output,
    # with control g
    for g, (quats, control, _) in enumerate(calls):
        frame = init.active_rotations[g] if g < 6 else calls[g - 1][2]
        assert np.array_equal(quats, frame) and np.array_equal(control, controls[g])


def test_generation_off_the_tape_is_generation_on_it(corpus):
    skel, clips = corpus
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=8, include_controls=True, include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60), np.zeros(60)], 1), 0.25)
    init = clips[0].slice(0, 6)
    args = (pose_net, pace_net, spline, init, 12, init.frame_rate)
    free, taped = lo.generate_locomotion(*args), lo.generate_locomotion.__wrapped__(*args)
    assert free.rotations.tobytes() == taped.rotations.tobytes()
    assert free.root_positions.tobytes() == taped.root_positions.tobytes()


@pytest.mark.parametrize("variant", ["bidirectional", "online"])
def test_pace_forward_off_the_tape_is_forward_on_it(rng, variant):
    net = lo.PaceNetwork(lo.PaceNetworkConfig(variant=variant), seed=0)
    curv = rng.normal(size=12)
    taped = net.forward(curv)
    assert taped["raw"]._parents
    with ad.no_grad():
        free = net.forward(curv)
    assert {k: v.tobytes() for k, v in free.items()} == {k: v.data.tobytes()
                                                          for k, v in taped.items()}


def _generate_reference(pose_net, pace_net, spline, init_clip, num_frames, frame_rate):
    """generate_locomotion as a per-frame loop: each frame looks up its
    segment, builds its control frame and places its root on its own."""
    cfg, skel = pose_net.config, init_clip.skeleton
    pace = pace_net.forward(spline.curvatures)
    seg_facing, seg_freq = pace["facing"].data, pace["frequency"].data
    seg_speed = np.maximum(pace["speed"].data, 0.0)
    init_q = init_clip.active_rotations
    height_limit = 10.0 * max(skel.height(), 1e-6)
    state, theta, arc = pose_net.init_state(1), 0.0, 0.0

    def seg_index(s):
        return int(np.clip(s / spline.segment_length, 0, spline.num_segments - 1))

    def control_frame():
        i = seg_index(arc)
        tangent = spline.tangents[i]
        gait = seg_speed[i] * np.array([np.cos(theta), np.sin(theta)])
        return np.concatenate([tangent, lo._rotate2(seg_facing[i], tangent), gait])[None, :]

    def advance():
        nonlocal arc, theta
        i = seg_index(arc)
        arc += seg_speed[i] / frame_rate
        theta += 2.0 * np.pi * seg_freq[i] / frame_rate

    for f in range(init_q.shape[0]):
        out = pose_net.step(Tensor(mo.encode_pose(init_q[f][None], cfg.parameterization)),
                            state, prev_quats=Tensor(init_q[f][None]),
                            translations=Tensor(np.array([[init_clip.root_positions[f, 1], 0.0]])),
                            controls=Tensor(control_frame()))
        state = out["state"]
        advance()
    frames_q, frames_root = [], []
    for f in range(num_frames):
        quats, trans = out["quats"].data[0], out["translations"].data[0]
        if (not np.isfinite(quats).all() or not np.isfinite(trans).all()
                or np.abs(trans).max() > height_limit):
            raise lo.GenerationDivergedError(
                f"pose or translation left the {height_limit:.3g} envelope at frame {f}")
        ground = spline.position_at(np.clip(arc + float(trans[1]), 0.0, spline.total_length))
        frames_q.append(quats)
        frames_root.append(np.array([ground[0], float(trans[0]), ground[1]]))
        controls = Tensor(control_frame())  # this frame's, as in warm-up
        advance()
        out = pose_net.step(out["feedback"], state, prev_quats=out["quats"],
                            translations=out["translations"], controls=controls)
        state = out["state"]
    rotations = np.tile(skel.constant_rotations, (num_frames, 1, 1))
    rotations[:, skel.active_indices] = np.stack(frames_q)
    return MotionClip(skel, frame_rate, np.stack(frames_root), rotations)


def test_generation_matches_reference_loop(corpus):
    skel, clips = corpus
    t = np.linspace(0.0, 1.0, 80)
    heading = 1.3 * np.sin(2 * np.pi * t)
    ground = np.cumsum(0.05 * np.stack([np.cos(heading), np.sin(heading)], 1), 0)
    spline = fit_spline(np.stack([ground[:, 0], np.zeros(80), ground[:, 1]], 1), 0.2)
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, include_controls=True, include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    pace_net.params["head.b"].data[3] = 2.0  # fast enough to run off the spline's end
    init = clips[0].slice(0, 8)
    clip = lo.generate_locomotion(pose_net, pace_net, spline, init, 150, 25.0)
    want = _generate_reference(pose_net, pace_net, spline, init, 150, 25.0)
    assert clip.rotations.tobytes() == want.rotations.tobytes()
    assert clip.root_positions.tobytes() == want.root_positions.tobytes()
    roots = want.root_positions
    # the last frames stand clamped at the spline's end
    assert np.array_equal(roots[-1, [0, 2]], roots[-2, [0, 2]])
    assert np.abs(roots[-1, [0, 2]] - spline.points[-1]).max() < 1e-9

    # root height just under the envelope, at the pace network's own speed:
    # the run leaves the envelope after its first frame
    pose_net.params["head.b"].data[pose_net.config.pose_dim] = 10.0 * skel.height() - 0.0486
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    messages = []
    for generate in (lo.generate_locomotion, _generate_reference):
        with pytest.raises(lo.GenerationDivergedError) as err:
            generate(pose_net, pace_net, spline, init, 150, 25.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and not messages[0].endswith("at frame 0")


def _last_frames(layer_state) -> np.ndarray:
    """A layer's last d input frames (B, d, C) from its ``(chunks, at)``."""
    chunks, at = layer_state
    return np.concatenate([ad._array(chunks[0])[:, at:]] + [ad._array(c) for c in chunks[1:]],
                          axis=1)


def test_off_tape_conv_state_is_frames_and_never_written(rng):
    # each layer's state is (chunks, at) in both modes, of arrays off the
    # tape; stepping twice from one state gives equal bytes and writes
    # nothing, and a state built on the tape is taken too
    cfg = mo.PoseNetworkConfig.desk(4, channels=16, backbone="convolutional")
    net = mo.PoseNetwork(cfg, seed=0)
    q = random_unit_quats(rng, (3, 33, 4))
    pose = mo.encode_pose(q, "quaternion").reshape(3, 33, -1)
    taped = net.forward_window(pose[:, :32], prev_quats=q[:, 31])
    on_tape = net.step(pose[:, 32], taped["state"], prev_quats=q[:, 32])
    with ad.no_grad():
        free = net.forward_window(pose[:, :32], prev_quats=q[:, 31])
        before = [(c.tobytes(), at) for chunks, at in free["state"] for c in chunks]
        steps = [net.step(pose[:, 32], state, prev_quats=q[:, 32])
                 for state in (free["state"], free["state"], taped["state"])]
    assert [(c.tobytes(), at) for chunks, at in free["state"] for c in chunks] == before
    # a window keeps its own input as one chunk, its last d frames from 32 - d
    assert [at for _, at in free["state"]] == [32 - d for d in cfg.dilations]
    for (chunks, at), (want, want_at), c in zip(free["state"], taped["state"], cfg.conv_dims):
        assert len(chunks) == 1 and chunks[0].shape == (3, 32, c) and at == want_at
        assert type(chunks[0]) is np.ndarray
        assert chunks[0].tobytes() == ad._array(want[0]).tobytes()
    for out in steps:
        assert out["quats"].tobytes() == on_tape["quats"].data.tobytes()
        for layer, d in zip(out["state"], cfg.dilations):
            assert _last_frames(layer).shape[1] == d
        for (chunks, at), (want, want_at) in zip(out["state"], on_tape["state"]):
            # plain arrays, also in the step from the taped state
            assert at == want_at and all(type(c) is np.ndarray for c in chunks)
            assert [c.tobytes() for c in chunks] == [ad._array(w).tobytes() for w in want]


@pytest.mark.parametrize("backbone,mode,sides", [
    ("convolutional", "velocity", False), ("convolutional", "absolute", False),
    ("recurrent", "velocity", False), ("recurrent", "absolute", True),
], ids=["convolutional-velocity", "convolutional-absolute", "recurrent-velocity",
        "recurrent-absolute-sides"])
def test_step_matches_window(rng, backbone, mode, sides):
    cfg = mo.PoseNetworkConfig.desk(4, hidden=16, channels=16, backbone=backbone, mode=mode,
                                    include_controls=sides, include_translations=sides)
    net = mo.PoseNetwork(cfg, seed=0)
    q = random_unit_quats(rng, (2, 40, 4))
    pose = mo.encode_pose(q, "quaternion").reshape(2, 40, -1)
    side = ({"translations": rng.normal(size=(2, 40, 2)),
             "controls": rng.normal(size=(2, 40, mo.CONTROL_DIM))} if sides else {})
    want = net.forward_window(Tensor(pose), prev_quats=Tensor(q[:, -1]),
                              **{k: Tensor(v) for k, v in side.items()})
    state = net.init_state(2)
    for f in range(40):
        got = net.step(Tensor(pose[:, f]), state, prev_quats=Tensor(q[:, f]),
                       **{k: Tensor(v[:, f]) for k, v in side.items()})
        state = got["state"]
    # the GRU runs the same cells on the same inputs: exactly equal; the
    # conv window sums its frames in another order than the steps
    tol = 1e-12 if backbone == "convolutional" else 0.0
    for key in ("quats", "translations"):
        if got[key] is not None:
            assert np.abs(got[key].data - want[key].data).max() <= tol
    if backbone == "convolutional":
        state, want_state = ([_last_frames(s) for s in st] for st in (state, want["state"]))
        assert [s.shape for s in state] == [(2, d, c) for d, c in
                                            zip(cfg.dilations, (4 * 4, 16, 16, 16, 16))]
    else:
        state, want_state = [s.data for s in state], [w.data for w in want["state"]]
    assert [s.shape for s in state] == [w.shape for w in want_state]
    for s, w in zip(state, want_state):
        assert np.abs(s - w).max() <= tol


@pytest.mark.parametrize("backbone", ["recurrent", "convolutional"])
def test_window_rejects_non_finite_state(rng, backbone):
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(4, hidden=16, channels=16,
                                                   backbone=backbone), seed=0)
    net.params["gru1.b" if backbone == "recurrent" else "conv3.b"].data[0] = np.nan
    q = random_unit_quats(rng, (1, 32, 4))
    with pytest.raises(ad.NumericalError):
        net.forward_window(Tensor(q.reshape(1, 32, -1)), prev_quats=Tensor(q[:, -1]))


def test_generation_holds_inactive_joints_at_their_constants(corpus, tmp_path):
    from quatmotion import bvh
    from quatmotion.kinematics import forward_kinematics

    skel, clips = corpus
    init = freeze_joint(clips[0].slice(0, 8), "spine0", SPINE_BEND)
    frozen, j = init.skeleton, init.skeleton.names.index("spine0")
    pose_net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        frozen.num_active, hidden=16, include_controls=True, include_translations=True), seed=0)
    pace_net = lo.PaceNetwork(lo.PaceNetworkConfig(), seed=0)
    # 1 Hz at 1 unit/s, so each frame's gait signal differs from the next
    pace_net.params["head.b"].data[2:] = 1.0
    spline = fit_spline(np.stack([np.linspace(0, 4, 60), np.zeros(60), np.zeros(60)], 1), 0.25)
    clip = lo.generate_locomotion(pose_net, pace_net, spline, init, 40, 25.0)
    want = _generate_reference(pose_net, pace_net, spline, init, 40, 25.0)
    assert clip.rotations.tobytes() == want.rotations.tobytes()
    assert np.array_equal(clip.rotations[:, j], np.tile(frozen.constant_rotations[j], (40, 1)))
    # the BVH export, which writes the stored rotations, poses the clip as its FK does
    path = tmp_path / "gen.bvh"
    bvh.save_bvh(path, frozen, clip.frame_rate, clip.root_positions, clip.rotations)
    loaded, rate, root, rots = bvh.load_bvh(path)
    got = forward_kinematics(loaded, rots[:, loaded.active_indices], root)
    # an End Site loads as its parent's name + "_end"
    cols = [loaded.names.index(name if name in loaded.names else
                               frozen.names[frozen.parents[i]] + "_end")
            for i, name in enumerate(frozen.names)]
    assert np.abs(got[:, cols] - clip.positions()).max() < 1e-4
