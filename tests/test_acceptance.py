"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run). The Human3.6M comparison needs user
data and is skipped unless QUATMOTION_H36M points at a directory of
converted .qmc Walking clips.

Run with: python3 -m pytest tests/test_acceptance.py -s
"""
import os
import time

import numpy as np
import pytest

from quatmotion import evaluation as ev
from quatmotion import locomotion as lo
from quatmotion import models as mo
from quatmotion import motiondata as md
from quatmotion import rotmath as rm
from quatmotion import training as tr
from quatmotion.autodiff import Tensor
from quatmotion.gradcheck import run_gradcheck
from quatmotion.kinematics import (IkConfig, Skeleton, forward_kinematics,
                                   ik_reproject, per_frame_velocity_error)

from conftest import random_unit_quats


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


# -- 1: rotation algebra round trips --------------------------------------------


def test_criterion_1_rotation_round_trips():
    rng = np.random.default_rng(0)
    t0 = time.time()
    n = 10_000
    q = random_unit_quats(rng, (n,))
    q[q[:, 0] < 0] *= -1

    worst = 0.0
    for order in rm.TAIT_BRYAN_ORDERS:
        back = rm.euler_to_quat(rm.quat_to_euler(q, order).angles, order)
        back[back[:, 0] < 0] *= -1
        worst = max(worst, float(np.abs(back - q).max()))

    e = rm.quat_to_expmap(q)
    back = rm.expmap_to_quat(e)
    back[back[:, 0] < 0] *= -1
    worst = max(worst, float(np.abs(back - q).max()))

    a = random_unit_quats(rng, (n,))
    b = random_unit_quats(rng, (n,))
    v = rng.normal(size=(n, 3))

    def mat(qs):
        w, x, y, z = qs[:, 0], qs[:, 1], qs[:, 2], qs[:, 3]
        m = np.empty(qs.shape[:-1] + (3, 3))
        m[:, 0, 0] = 1 - 2 * (y * y + z * z); m[:, 0, 1] = 2 * (x * y - w * z)
        m[:, 0, 2] = 2 * (x * z + w * y); m[:, 1, 0] = 2 * (x * y + w * z)
        m[:, 1, 1] = 1 - 2 * (x * x + z * z); m[:, 1, 2] = 2 * (y * z - w * x)
        m[:, 2, 0] = 2 * (x * z - w * y); m[:, 2, 1] = 2 * (y * z + w * x)
        m[:, 2, 2] = 1 - 2 * (x * x + y * y)
        return m

    dm = np.abs(rm.quat_to_matrix(rm.qmul(a, b)) - mat(a) @ mat(b)).max()
    dv = np.abs(rm.rotate_vector(a, v) - (mat(a) @ v[..., None])[..., 0]).max()
    worst = max(worst, float(dm), float(dv))
    dt = time.time() - t0
    report(1, "rotation algebra round trips", worst < 1e-9 and dt < 10,
           f"worst {worst:.2e}, {dt:.1f}s")


# -- 2: FK against a homogeneous-matrix oracle ------------------------------------


def matrix_fk(skel, quats, root):
    """Independent FK: chain 4x4 homogeneous transforms down the tree."""
    frames = quats.shape[0]
    world = np.zeros((frames, skel.num_joints, 4, 4))
    out = np.zeros((frames, skel.num_joints, 3))
    full = np.tile([1.0, 0, 0, 0], (frames, skel.num_joints, 1))
    full[:, skel.active_indices] = quats
    for j in range(skel.num_joints):
        local = np.zeros((frames, 4, 4))
        local[:, :3, :3] = rm.quat_to_matrix(full[:, j])
        local[:, :3, 3] = skel.offsets[j]
        local[:, 3, 3] = 1.0
        if skel.parents[j] < 0:
            world[:, j] = local
            world[:, j, :3, 3] = root
        else:
            world[:, j] = world[:, skel.parents[j]] @ local
        out[:, j] = world[:, j, :3, 3]
    return out


def test_criterion_2_fk_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    bone_dev = 0.0
    for _ in range(1000):
        j = int(rng.integers(2, 11))
        offs = rng.normal(size=(j, 3))
        offs[0] = 0
        skel = Skeleton.from_joints(
            [{"name": f"j{i}", "parent": i - 1, "offset": offs[i]}
             for i in range(j)])
        q = random_unit_quats(rng, (3, j))
        root = rng.normal(size=(3, 3))
        pos = forward_kinematics(skel, q, root)
        worst = max(worst, float(np.abs(pos - matrix_fk(skel, q, root)).max()))
        lens = np.linalg.norm(pos[:, 1:] - pos[:, skel.parents[1:]], axis=-1)
        bone_dev = max(bone_dev, float(
            np.abs(lens - skel.bone_lengths()[1:]).max()))
    report(2, "FK matches matrix oracle", worst < 1e-9 and bone_dev < 1e-9,
           f"fk {worst:.2e}, bones {bone_dev:.2e}")


# -- 3: gradient checks -----------------------------------------------------------


def test_criterion_3_gradient_checks():
    t0 = time.time()
    failures = run_gradcheck()

    # positional loss through differentiable FK, by central differences
    rng = np.random.default_rng(2)
    skel, clips = lo.make_synth_corpus(1, seed=4, duration=3)
    rots = clips[0].active_rotations[:3]
    ref = forward_kinematics(skel, rots, np.zeros((3, 3)))
    x0 = rots + rng.normal(scale=0.05, size=rots.shape)

    def f(x):
        return tr.loss_positional(Tensor(x), ref, skel).item()

    t = Tensor(x0.copy(), requires_grad=True)
    tr.loss_positional(t, ref, skel).backward()
    g = t.grad
    eps = 1e-5
    worst = 0.0
    flat = x0.reshape(-1)
    for i in rng.choice(flat.size, size=12, replace=False):
        pert = flat.copy(); pert[i] += eps
        up = f(pert.reshape(x0.shape))
        pert[i] -= 2 * eps
        dn = f(pert.reshape(x0.shape))
        fd = (up - dn) / (2 * eps)
        gi = g.reshape(-1)[i]
        worst = max(worst, abs(gi - fd) / max(abs(fd), abs(gi), 1e-8))
    dt = time.time() - t0
    report(3, "gradient checks", failures == 0 and worst < 1e-5 and dt < 60,
           f"{failures} op failures, positional rel {worst:.2e}, {dt:.1f}s")


# -- 4: continuity fix ------------------------------------------------------------


def test_criterion_4_continuity_fix():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 4, 400)
    smooth = rm.euler_to_quat(
        np.stack([np.sin(t), 0.5 * np.cos(2 * t), 0.3 * t], axis=-1), "zyx")
    flips = np.where(rng.random(len(t)) < 0.5, -1.0, 1.0)[:, None]
    adversarial = smooth * flips

    fixed = rm.fix_continuity(adversarial)
    dots = np.sum(fixed[1:] * fixed[:-1], axis=-1)
    ok = bool((dots >= 0).all())
    ok &= bool(np.array_equal(rm.fix_continuity(fixed), fixed))
    same_rot = np.minimum(np.abs(fixed - adversarial).max(-1),
                          np.abs(fixed + adversarial).max(-1)).max()
    ok &= same_rot < 1e-15
    report(4, "continuity fix on sign-flipped sequences", ok,
           f"min dot {dots.min():.3f}, rotation dev {same_rot:.1e}")


# -- 5: protocol variance ---------------------------------------------------------


def test_criterion_5_protocol_variance():
    t0 = time.time()
    skel, clips = lo.make_synth_corpus(6, seed=2, duration=12)

    def means_for(samples):
        out = []
        for sd in range(200):
            proto = ev.EvalProtocol(samples_per_sequence=samples, seed=sd,
                                    conditioning_frames=10)
            rep = ev.run_protocol(ev.baseline_zero_velocity, clips, proto)
            out.append(rep.overall_mean(80))
        return np.array(out)

    m4 = means_for(4)
    m128 = means_for(128)
    iqr = lambda a: np.percentile(a, 75) - np.percentile(a, 25)
    ratio = iqr(m4) / iqr(m128)
    lo4, hi4 = ev.bootstrap_ci(m4, quantiles=(2.5, 97.5))
    lo128, hi128 = ev.bootstrap_ci(m128, quantiles=(2.5, 97.5))
    overlap = not (hi4 < lo128 or hi128 < lo4)
    dt = time.time() - t0
    report(5, "protocol variance shrinks with S", ratio >= 3.0 and overlap
           and dt < 300,
           f"IQR ratio {ratio:.2f}, means {m4.mean():.4f}/{m128.mean():.4f}, "
           f"95% CIs overlap={overlap}, {dt:.0f}s")


# -- 6: published baseline values (needs user-supplied Human3.6M data) -------------


def _h36m_walking_means():
    """Overall means at 80/160/320/400 ms of the criterion-6 baselines on
    the Walking clips under QUATMOTION_H36M, or None when it is unset."""
    path = os.environ.get("QUATMOTION_H36M")
    if not path:
        return None
    clips = md.load_dataset(path)
    walking = [c for c in clips if "walking" in c.action.lower()
               and "dog" not in c.action.lower()
               and "together" not in c.action.lower()]
    assert walking, "no Walking clips found in the dataset"
    preds = {
        "zero_velocity": ev.baseline_zero_velocity,
        "running_average_4": lambda p, h: ev.baseline_running_average(p, h, 4),
    }
    means = {}
    for name, pred in preds.items():
        rep = ev.run_protocol(pred, walking, ev.EvalProtocol.standard())
        means[(name, "std")] = [rep.overall_mean(ms) for ms in (80, 160, 320, 400)]
    rep = ev.run_protocol(preds["zero_velocity"], walking,
                          ev.EvalProtocol.proposed())
    means[("zero_velocity", "S=128")] = [rep.overall_mean(ms) for ms in (80, 160, 320, 400)]
    return means


def test_criterion_6_h36m_baselines():
    means = _h36m_walking_means()
    if means is None:
        print("[criterion  6] SKIP  Human3.6M baseline comparison "
              "(set QUATMOTION_H36M to a directory of converted Walking clips)")
        pytest.skip("no Human3.6M data")

    want = {
        ("zero_velocity", "std"): (0.39, 0.68, 0.99, 1.15),
        ("running_average_4", "std"): (0.64, 0.87, 1.07, 1.20),
        ("zero_velocity", "S=128"): (0.43, 0.78, 1.23, 1.34),
    }
    ok = True
    details = []
    for key, values in want.items():
        dev = max(abs(g - w) for g, w in zip(means[key], values))
        ok &= dev <= (0.01 if key[1] == "S=128" else 0.02)
        details.append(f"{key[0]} {key[1]} dev {dev:.3f}")
    report(6, "Human3.6M baseline values", ok, "; ".join(details))


def test_criterion_6_path_runs_on_synthetic_walking(tmp_path, monkeypatch):
    _, clips = lo.make_synth_corpus(2, seed=3, duration=6)
    for clip in clips:
        clip.action = "Walking"
    md.save_dataset(tmp_path / "walking", clips)
    monkeypatch.setenv("QUATMOTION_H36M", str(tmp_path / "walking"))
    means = _h36m_walking_means()
    assert set(means) == {("zero_velocity", "std"), ("running_average_4", "std"),
                          ("zero_velocity", "S=128")}
    assert all(np.isfinite(v).all() for v in means.values())


# -- 7: learning smoke test -------------------------------------------------------


def test_criterion_7_learning_smoke():
    t0 = time.time()
    skel, clips = lo.make_synth_corpus(8, seed=0, duration=12)
    train_clips, test_clips = clips[:6], clips[6:]
    a = skel.num_active
    frame_rate = test_clips[0].frame_rate
    protocol = ev.EvalProtocol(samples_per_sequence=16, seed=123,
                               conditioning_frames=10,
                               horizons_ms=(1000 * 2 / frame_rate,))

    def eval_80ms(predict):
        report = ev.run_protocol(predict, test_clips, protocol)
        return report.overall_mean(protocol.horizons_ms[0])

    zv = eval_80ms(lambda prefix, h: np.repeat(prefix[-1][None], h, axis=0))
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a), seed=1)
    cfg = tr.TrainConfig(epochs=1500, conditioning_frames=10,
                         prediction_frames=6, loss="quat_dot",
                         batch_size=6, seed=5, lr0=1e-3)
    tr.train_pose(net, train_clips, skel, cfg, val_clips=test_clips,
                  validate_every=500)
    me = eval_80ms(lambda prefix, h: tr.free_run_predict(net, prefix, h))
    gain = 1 - me / zv

    # bit-for-bit reproducibility of a shorter identical run
    cfg2 = tr.TrainConfig(epochs=30, conditioning_frames=10,
                          prediction_frames=6, loss="quat_dot",
                          batch_size=6, seed=5, lr0=1e-3)
    twins = []
    for _ in range(2):
        n2 = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a), seed=1)
        tr.train_pose(n2, train_clips, skel, cfg2, validate_every=10 ** 9)
        twins.append(n2)
    same = all(np.array_equal(twins[0].params[k].data, twins[1].params[k].data)
               for k in twins[0].params)
    dt = time.time() - t0
    report(7, "trained model beats zero-velocity at 80 ms",
           gain >= 0.20 and same and dt < 600,
           f"improvement {gain:.1%} (zv {zv:.4f} -> {me:.4f}), "
           f"bit-reproducible={same}, {dt:.0f}s")


# -- 8: schedules and gradient clipping --------------------------------------------


def test_criterion_8_schedules_and_clipping():
    from quatmotion.optim import clip_global_norm, global_norm

    cfg = tr.TrainConfig(lr0=2e-3)
    exact = all(cfg.lr_at(e) == 2e-3 * 0.999 ** e and
                cfg.p_at(e) == 0.995 ** e for e in range(2000))

    # post-clip gradient norm on real training batches
    skel, clips = lo.make_synth_corpus(2, seed=9, duration=6)
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active), seed=0)
    tcfg = tr.TrainConfig(epochs=1, conditioning_frames=8, prediction_frames=4,
                          seed=0)
    sampler = md.EpisodeSampler(clips, 12, seed=0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(3):
        net.zero_grad()
        batch = sampler.sample(2)
        loss = tr.scheduled_sampling_rollout(
            net, batch["rotations"], skel, tcfg, p=0.9, rng=rng,
            root_positions=batch["root_positions"])
        loss.backward()
        clipped = clip_global_norm(net.grads(), tr.CLIP_NORM)
        worst = max(worst, global_norm(clipped))
    ok = exact and worst <= 0.1 + 1e-12
    report(8, "exact schedules, post-clip norm <= 0.1", ok,
           f"post-clip norm {worst:.4f}")


# -- 9: parameterization ablation on wrap-prone data --------------------------------


def test_criterion_9_parameterization_ablation():
    t0 = time.time()
    skel, corpus = lo.make_synth_corpus(4, seed=3, duration=10, frame_rate=25)
    # spinning the root through several revolutions sweeps yaw across +-pi,
    # the regime where euler and expmap encodings wrap
    clips = [md.spin_clip(c, revolutions=3.0) for c in corpus]
    cfg = tr.TrainConfig(epochs=120, conditioning_frames=10,
                         prediction_frames=4, loss="quat_dot",
                         batch_size=8, seed=11)
    res = ev.compare_parameterizations(
        clips, skel, cfg,
        parameterizations=("quaternion", "expmap", "euler-yzx"),
        seeds=(0, 1), hidden=48, validate_every=60)

    pools = {p: np.concatenate([r["velocity_errors"] for r in res[p]])
             for p in res}
    q99 = np.percentile(pools["quaternion"], 99)
    tails = {p: ev.tail_mass(pools[p], q99) for p in pools}

    finals = {p: [r["position_curve"][-1] for r in res[p]] for p in res}
    spread = max(max(v) - min(v) for v in finals.values())
    quat_pos = float(np.mean(finals["quaternion"]))
    exp_pos = float(np.mean(finals["expmap"]))
    ok = (tails["quaternion"] < tails["euler-yzx"]
          and quat_pos <= exp_pos + spread)
    dt = time.time() - t0
    report(9, "quaternion beats wrap-prone encodings", ok,
           f"tails q={tails['quaternion']:.3f} yzx={tails['euler-yzx']:.3f}, "
           f"final pos q={quat_pos:.3f} exp={exp_pos:.3f} noise {spread:.3f}, "
           f"{dt:.0f}s")


# -- 10: IK reprojection ------------------------------------------------------------


def test_criterion_10_ik_reprojection():
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    bone_dev = 0.0
    for _ in range(2):
        offs = rng.normal(size=(5, 3))
        offs[0] = 0
        skel = Skeleton.from_joints(
            [{"name": f"j{i}", "parent": i - 1, "offset": offs[i]}
             for i in range(5)])
        q = random_unit_quats(rng, (8, 5))
        target = forward_kinematics(skel, q, np.zeros((8, 3)))
        init = np.tile([1.0, 0, 0, 0], (8, 5, 1))
        got = ik_reproject(skel, target, init,
                           IkConfig(step_size=2e-2, step_decay=0.997,
                                    max_steps=1800, patience=500))
        pos = forward_kinematics(skel, got, np.zeros((8, 3)))
        worst = max(worst, float(np.linalg.norm(pos - target, axis=-1).max()))
        lens = np.linalg.norm(pos[:, 1:] - pos[:, skel.parents[1:]], axis=-1)
        bone_dev = max(bone_dev, float(
            np.abs(lens - skel.bone_lengths()[1:]).max()))
    solve_t = time.time() - t0
    ok_a = worst < 1e-3 and solve_t < 5 and bone_dev < 1e-12

    # perturbed targets: reprojecting noisy positions produces heavier
    # velocity-error tails than the direct quaternion model
    skel, corpus = lo.make_synth_corpus(3, seed=5, duration=8, frame_rate=25)
    cfg = tr.TrainConfig(epochs=100, conditioning_frames=10,
                         prediction_frames=4, loss="quat_dot", seed=3)
    qnet = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=48, mode="absolute",
        parameterization="quaternion"), seed=3)
    tr.train_pose(qnet, corpus, skel, cfg, validate_every=10 ** 9)

    rng = np.random.default_rng(0)
    n, k = 10, 4
    qerrs, rerrs = [], []
    for clip, s, qpos, ref in tr.free_run_chunks(qnet, corpus, skel, n, k,
                                                 max_chunks=4):
        qerrs.append(per_frame_velocity_error(qpos, ref))
        noisy = ref + rng.normal(scale=0.02, size=ref.shape)
        reproj = ik_reproject(skel, noisy, clip.active_rotations[s + n - 1],
                              cfg=IkConfig(max_steps=300, patience=100),
                              root_position=np.zeros(3))
        rerrs.append(per_frame_velocity_error(
            forward_kinematics(skel, reproj, np.zeros((k, 3))), ref))
    qerrs = np.concatenate(qerrs)
    rerrs = np.concatenate(rerrs)
    q99 = np.percentile(qerrs, 99)
    tail_q = ev.tail_mass(qerrs, q99)
    tail_r = ev.tail_mass(rerrs, q99)
    ok_b = tail_r > tail_q
    report(10, "IK recovery and perturbed-target tails", ok_a and ok_b,
           f"recover {worst:.1e} in {solve_t:.1f}s, bones {bone_dev:.1e}, "
           f"tails reproj {tail_r:.3f} > quat {tail_q:.3f}")


# -- 11: convolutional receptive field ----------------------------------------------


def test_criterion_11_receptive_field():
    rng = np.random.default_rng(7)
    cfg = mo.PoseNetworkConfig.desk(4, channels=16, backbone="convolutional")
    net = mo.PoseNetwork(cfg, seed=0)
    q = random_unit_quats(rng, (1, 40, 4))
    pose = mo.encode_pose(q, "quaternion").reshape(1, 40, -1)
    base = net.forward_window(Tensor(pose), prev_quats=q[:, -1])["quats"].data

    ok = cfg.receptive_field == 32
    results = []
    for lag, sensitive in ((1, True), (16, True), (31, True),
                           (32, False), (35, False), (39, False)):
        bumped = pose.copy()
        bumped[:, -1 - lag] += 0.5
        got = net.forward_window(Tensor(bumped),
                                 prev_quats=q[:, -1])["quats"].data
        changed = bool(np.abs(got - base).max() > 1e-12)
        ok &= changed == sensitive
        results.append(f"lag{lag}={'hit' if changed else 'flat'}")
    report(11, "conv receptive field is exactly 32", ok, ", ".join(results))
