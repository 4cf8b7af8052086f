"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then repeats one fixed unit of work, an *item*, whose outputs are the same
on every repeat. Models are part of the program under test, so their
initial weights come from the constant ``MODEL_SEED``; only the data
(corpora, BVH files, IK targets, splines, protocol chunk starts) depends
on the workload seed.

``item(st, wrap)`` calls the library through module attributes, so that
the traced run sees every call, and passes its own callables through
``wrap(span_name, fn)``, which is the identity when tracing is off.
"""

from __future__ import annotations

import math
import os

import numpy as np

from quatmotion import evaluation as ev
from quatmotion import kinematics as kin
from quatmotion import models as mo
from quatmotion import motiondata as md
from quatmotion import training as tr

MODEL_SEED = 0


def _seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def _digest(arrays: dict) -> dict:
    """Per-array sum and Euclidean norm: compact, and comparable within a
    tolerance."""
    return {k: [float(a.sum()), float(np.sqrt(np.sum(a * a)))]
            for k, a in sorted(arrays.items())}


def _reset(net, init: dict) -> None:
    for k, v in init.items():
        net.params[k].data[...] = v
    net.zero_grad()


def _unit_and_bones(skel, rotations, root) -> list:
    """Problems with an IK output: non-unit quaternions or bone lengths
    off by 1e-12 or more."""
    dev = float(np.abs(np.linalg.norm(rotations, axis=-1) - 1.0).max())
    if not dev < 1e-12:
        return [f"quaternion norm deviates by {dev:.3g}"]
    pos = kin.forward_kinematics(skel, rotations, root)
    lens = np.linalg.norm(pos[..., 1:, :] - pos[..., skel.parents[1:], :], axis=-1)
    bone = float(np.abs(lens - skel.bone_lengths()[1:]).max())
    if not bone < 1e-12:
        return [f"bone length deviates by {bone:.3g}"]
    return []


def close(a, b, rtol) -> bool:
    """Structural comparison of JSON-like values; floats within rtol."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[k], b[k], rtol) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


class Workload:
    name = ""
    why = ""
    op = ""        # what one counted operation is
    metric = ""    # the named rate this workload's ops_per_s stands for, if any
    has_golden = False
    golden_rtol = 0.0

    def setup(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def item(self, st: dict, wrap) -> dict:
        raise NotImplementedError

    def ops(self, st: dict, out: dict) -> int:
        raise NotImplementedError

    def check(self, st: dict, out: dict) -> list:
        """Problems found in one item's outputs; empty when correct."""
        return []

    def fingerprint(self, out: dict):
        """Value that must be identical on every item of a run."""
        return out

    def golden(self, out: dict):
        """The part of the outputs kept in the golden copy (has_golden)."""
        return None

    def golden_matches(self, got, want) -> bool:
        return close(got, want, self.golden_rtol)

    def stages(self, st: dict, out: dict) -> dict:
        """{stage span name: (operations, named rate, unit)} for the parts
        of an item that have a rate of their own."""
        return {}

    def quality(self, st: dict, out: dict) -> dict:
        """Deterministic output figures reported as per-layer metrics."""
        return {}

    def expected_calls(self, st: dict, out: dict) -> dict:
        """Exact number of spans per item for some traced functions."""
        return {}


# -- train ------------------------------------------------------------------------

class Train(Workload):
    name = "train"
    why = ("scheduled-sampling train_pose of the desk GRU past epoch 400 "
           "(p=0.13), so GRU steps, tape backward and adam_step dominate")
    op = "episodes"
    metric = "train_episodes_per_s"
    has_golden = True
    golden_rtol = 1e-6

    CLIPS, VAL_CLIPS, CLIP_SECONDS = 32, 4, 4.0
    START_EPOCH, EPOCHS, VALIDATE_EVERY = 400, 6, 5
    BATCH, N, K = 8, 10, 6

    def setup(self, seed, workdir):
        s_train, s_val = _seeds(seed, 2)
        skel, clips = md.make_synth_corpus(self.CLIPS, seed=s_train,
                                           duration=self.CLIP_SECONDS)
        _, val = md.make_synth_corpus(self.VAL_CLIPS, seed=s_val,
                                      duration=self.CLIP_SECONDS)
        net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active),
                             seed=MODEL_SEED)
        cfg = tr.TrainConfig(epochs=self.START_EPOCH + self.EPOCHS,
                             conditioning_frames=self.N, prediction_frames=self.K,
                             loss="quat_dot", batch_size=self.BATCH, seed=seed)
        init = {k: v.copy() for k, v in net.param_arrays().items()}
        return {"skel": skel, "clips": clips, "val": val, "net": net,
                "cfg": cfg, "init": init}

    def item(self, st, wrap):
        net = st["net"]
        _reset(net, st["init"])
        hist = tr.train_pose(net, st["clips"], st["skel"], st["cfg"],
                             val_clips=st["val"], start_epoch=self.START_EPOCH,
                             validate_every=self.VALIDATE_EVERY)
        return {"losses": [r["train_loss"] for r in hist],
                "val": [hist[-1]["val_position_loss"], hist[-1]["val_velocity_loss"]],
                "digest": _digest(net.param_arrays())}

    def ops(self, st, out):
        return self.EPOCHS * len(st["clips"])

    def check(self, st, out):
        if not all(math.isfinite(v) for v in out["losses"] + out["val"]):
            return ["non-finite training or validation loss"]
        return []

    def golden(self, out):
        return {"loss_final": out["losses"][-1], "digest": out["digest"]}

    def quality(self, st, out):
        return {"train_loss_final": out["losses"][-1]}

    def expected_calls(self, st, out):
        steps = self.EPOCHS * -(-len(st["clips"]) // self.BATCH)
        epochs = range(self.START_EPOCH, self.START_EPOCH + self.EPOCHS)
        validations = sum(1 for e in epochs if e % self.VALIDATE_EVERY == 0
                          or e == epochs[-1])
        chunks = 0
        for clip in st["val"]:
            limit = clip.num_frames - self.N - self.K
            chunks += len(np.unique(np.linspace(0, limit, min(8, limit + 1), dtype=int)))
        return {"optim.adam_step": steps, "autodiff.backward": steps,
                "training.rollout": steps, "motiondata.sample": steps,
                "training.validate": validations,
                "training.free_run_predict": validations * chunks}


# -- evaluate ---------------------------------------------------------------------

def _report_means(report) -> dict:
    return {f"{r['action']}@{r['horizon_ms']}": r["mean_error"] for r in report.rows()}


class Evaluate(Workload):
    name = "evaluate"
    why = ("S=128 protocol on held-out clips: a desk GRU and a desk conv model "
           "through free_run_predict, and two baselines; forward passes only")
    op = "chunks"
    has_golden = True
    MODEL_RTOL = 1e-6  # model reports; baseline reports must match exactly

    def setup(self, seed, workdir):
        s_clips, s_protocol = _seeds(seed, 2)
        skel, held = md.make_synth_corpus(1, seed=s_clips, duration=8.0)
        a = skel.num_active
        gru = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a), seed=MODEL_SEED)
        conv = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a, backbone="convolutional"),
                              seed=MODEL_SEED)
        n10 = ev.EvalProtocol.proposed(seed=s_protocol)
        n32 = ev.EvalProtocol.proposed(seed=s_protocol,
                                       conditioning_frames=conv.config.receptive_field)
        # the lambdas look up free_run_predict per call, so tracing sees it
        return {"clips": held, "groups": {
            "bench.models": [
                ("gru", lambda prefix, h: tr.free_run_predict(gru, prefix, h), n10),
                ("conv", lambda prefix, h: tr.free_run_predict(conv, prefix, h), n32)],
            "bench.baselines": [
                ("zero_velocity", ev.baseline_zero_velocity, n10),
                ("running_average", ev.baseline_running_average, n10)]}}

    def _run_group(self, st, group, wrap):
        return {name: _report_means(ev.run_protocol(
                    wrap("evaluation.predictor", predict), st["clips"], protocol))
                for name, predict, protocol in group}

    def item(self, st, wrap):
        return {stage: wrap(stage, self._run_group)(st, group, wrap)
                for stage, group in st["groups"].items()}

    def _chunks(self, st, stage):
        return sum(p.samples_per_sequence for _, _, p in st["groups"][stage]) * len(st["clips"])

    def ops(self, st, out):
        return sum(self._chunks(st, stage) for stage in st["groups"])

    def stages(self, st, out):
        return {"bench.models": (self._chunks(st, "bench.models"),
                                 "eval_model_chunks_per_s", "chunks/s"),
                "bench.baselines": (self._chunks(st, "bench.baselines"),
                                    "eval_baseline_chunks_per_s", "chunks/s")}

    def check(self, st, out):
        if not all(math.isfinite(v) for group in out.values()
                   for rep in group.values() for v in rep.values()):
            return ["non-finite protocol error"]
        return []

    def golden(self, out):
        return out

    def golden_matches(self, got, want):
        return (close(got["bench.models"], want["bench.models"], self.MODEL_RTOL)
                and close(got["bench.baselines"], want["bench.baselines"], 0.0))

    def expected_calls(self, st, out):
        models, chunks = self._chunks(st, "bench.models"), self.ops(st, out)
        return {"evaluation.run_protocol": 4, "evaluation.predictor": chunks,
                "training.euler_error": chunks, "training.free_run_predict": models}


# -- ik ---------------------------------------------------------------------------

class Ik(Workload):
    name = "ik"
    why = ("ik_reproject of criterion 10a's 5-joint chain from identity (1800 steps) "
           "and of a seeded noisy 4-frame biped target (300 steps): FK tape, backward, Adam")
    op = "solves"
    metric = "ik_solves_per_s"

    # The chain is criterion 10a's first one (its generator with seed 0) for
    # every workload seed. Projected-gradient IK from identity is a local
    # method: some random chains stall above the 1e-3 check in 1800 steps,
    # which is a property of the chain, not of the program.
    CHAIN_CFG = kin.IkConfig(step_size=2e-2, step_decay=0.997, max_steps=1800,
                             patience=500)
    BIPED_CFG = kin.IkConfig(max_steps=300, patience=100)
    NOISE = 0.02
    N, K = 10, 4

    def setup(self, seed, workdir):
        crit = np.random.default_rng(0)
        offsets = crit.normal(size=(5, 3))
        offsets[0] = 0.0
        chain = kin.Skeleton.from_joints(
            [{"name": f"j{i}", "parent": i - 1, "offset": offsets[i]} for i in range(5)])
        quats = crit.normal(size=(8, 5, 4))
        quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
        chain_target = kin.forward_kinematics(chain, quats, np.zeros((8, 3)))

        rng = np.random.default_rng(seed)
        skel, clips = md.make_synth_corpus(1, seed=int(rng.integers(2 ** 31)), duration=8.0)
        rots = clips[0].active_rotations
        s = int(rng.integers(0, len(rots) - self.N - self.K + 1))
        ref = kin.forward_kinematics(skel, rots[s + self.N:s + self.N + self.K],
                                     np.zeros((self.K, 3)))
        noisy = ref + rng.normal(scale=self.NOISE, size=ref.shape)
        return {"chain": chain, "chain_target": chain_target,
                "chain_init": np.tile([1.0, 0.0, 0.0, 0.0], (8, 5, 1)),
                "biped": skel, "biped_target": noisy, "biped_init": rots[s + self.N - 1]}

    def item(self, st, wrap):
        chain = wrap("bench.ik_chain", lambda: kin.ik_reproject(
            st["chain"], st["chain_target"], st["chain_init"], self.CHAIN_CFG))()
        biped = wrap("bench.ik_biped", lambda: kin.ik_reproject(
            st["biped"], st["biped_target"], st["biped_init"], self.BIPED_CFG,
            root_position=np.zeros(3)))()
        return {"chain": chain, "biped": biped}

    def ops(self, st, out):
        return 2

    def _chain_error(self, st, out) -> float:
        pos = kin.forward_kinematics(st["chain"], out["chain"], np.zeros((8, 3)))
        return float(np.linalg.norm(pos - st["chain_target"], axis=-1).max())

    def _biped_useful(self, st, out) -> bool:
        # the clean pose fits the noisy target to within the noise itself,
        # so a useful reprojection fits at least that well
        pos = kin.forward_kinematics(st["biped"], out["biped"], np.zeros((self.K, 3)))
        fit = np.linalg.norm(pos - st["biped_target"], axis=-1).mean()
        return bool(fit < self.NOISE * math.sqrt(3.0))

    def check(self, st, out):
        problems = (_unit_and_bones(st["chain"], out["chain"], np.zeros((8, 3)))
                    + _unit_and_bones(st["biped"], out["biped"], np.zeros((self.K, 3))))
        if not problems:
            err = self._chain_error(st, out)
            if not err < 1e-3:
                problems.append(f"chain IK max error {err:.3g} >= 1e-3")
        return problems

    def fingerprint(self, out):
        return {k: v.tolist() for k, v in out.items()}

    def quality(self, st, out):
        useful = int(self._chain_error(st, out) < 1e-3) + int(self._biped_useful(st, out))
        return {"ik_max_error": self._chain_error(st, out),
                "kinematics.ik_converged_ratio": useful / 2.0}

    def expected_calls(self, st, out):
        return {"kinematics.ik_reproject": 2}


# -- locomotion pipeline ------------------------------------------------------------

SWAP_MAP = dict(md.SYNTH_SWAP_MAP, l_foot_end="r_foot_end")


def _write_bvh(seed: int, workdir: str, clips: int, seconds: float) -> list:
    """Seeded synthetic walks written as BVH files; returns their paths."""
    _, corpus = md.make_synth_corpus(clips, seed=seed, duration=seconds)
    os.makedirs(os.path.join(workdir, "bvh"), exist_ok=True)
    paths = []
    for i, clip in enumerate(corpus):
        paths.append(os.path.join(workdir, "bvh", f"walk_{i:02d}.bvh"))
        md.save_bvh(paths[-1], clip)
    return paths


class Locomotion(Workload):
    name = "locomotion"
    why = ("BVH import, augment, .qmc write and read, gait features, train_pace, "
           "then fit_spline and 300 frames of closed-loop generate_locomotion")
    op = "pipelines"
    BVH_CLIPS, BVH_SECONDS, FACTOR = 4, 24.0, 2
    # each pace example keeps its first 128 segments, so that the pace work
    # per item does not depend on the seeded cadence (walks have 135 to 246)
    PACE_CLIPS, PACE_EPOCHS, PACE_SEGMENTS = 2, 2, 128
    FRAMES, INIT_FRAMES, SEGMENT = 300, 10, 0.25

    def setup(self, seed, workdir):
        s_bvh, s_path = _seeds(seed, 2)
        paths = _write_bvh(s_bvh, workdir, self.BVH_CLIPS, self.BVH_SECONDS)
        frames = sum(md.load_bvh(p)[1].num_frames for p in paths)
        rng = np.random.default_rng(s_path)
        t = np.linspace(0.0, 1.0, 400)
        heading = rng.uniform(0, 2 * np.pi) + rng.uniform(0.5, 1.5) * np.sin(
            2 * np.pi * rng.uniform(0.5, 2.0) * t + rng.uniform(0, 2 * np.pi))
        ground = np.cumsum(0.05 * np.stack([np.cos(heading), np.sin(heading)], axis=1), axis=0)
        pace = mo.PaceNetwork(mo.PaceNetworkConfig(), seed=MODEL_SEED)
        return {"paths": paths, "out": os.path.join(workdir, "qmc"), "frames": frames,
                "path": np.stack([ground[:, 0], np.zeros(len(t)), ground[:, 1]], axis=1),
                "pace": pace, "pace_init": {k: v.copy() for k, v in pace.param_arrays().items()},
                "pace_cfg": tr.TrainConfig(epochs=self.PACE_EPOCHS, seed=seed),
                "pose": mo.PoseNetwork(mo.PoseNetworkConfig.desk(
                    md.load_bvh(paths[0])[0].num_active, include_controls=True,
                    include_translations=True), seed=MODEL_SEED)}

    def _convert(self, st):
        imported, written = [], []
        for path in st["paths"]:
            imported.append(md.load_bvh(path)[1])
            for phase in md.downsample_all_phases(imported[-1], self.FACTOR):
                written += [phase, md.mirror(phase, SWAP_MAP)]
        md.save_dataset(st["out"], written)
        return imported, written, md.load_dataset(st["out"])

    def _pace(self, st, clips):
        names = clips[0].skeleton.names
        feet = names.index("l_foot"), names.index("r_foot")
        feats = [md.extract_gait_features(c, *feet) for c in clips]
        examples = [(curv[:self.PACE_SEGMENTS], targets[:self.PACE_SEGMENTS])
                    for curv, targets, _ in map(tr.pace_training_example, clips, feats)]
        _reset(st["pace"], st["pace_init"])
        hist = tr.train_pace(st["pace"], examples, st["pace_cfg"])
        return feats, [len(c) for c, _ in examples], [h["mae"] for h in hist]

    def _generate(self, st, init):
        spline = md.fit_spline(st["path"], self.SEGMENT)
        return mo.generate_locomotion(st["pose"], st["pace"], spline, init,
                                      num_frames=self.FRAMES, frame_rate=init.frame_rate)

    def item(self, st, wrap):
        imported, written, read = wrap("bench.convert", self._convert)(st)
        # gait features at the imported 25 Hz: on the 12.5 Hz downsampled
        # clips extract_gait_features finds no foot contacts at all
        feats, segments, mae = wrap("bench.pace", self._pace)(st, imported[:self.PACE_CLIPS])
        clip = wrap("bench.generate", self._generate)(st, imported[0].slice(0, self.INIT_FRAMES))
        return {"written": written, "read": read, "feats": feats, "segments": segments,
                "mae": mae, "pace": _digest(st["pace"].param_arrays()), "clip": clip}

    def ops(self, st, out):
        return 1

    def stages(self, st, out):
        return {"bench.convert": (st["frames"], "convert_frames_per_s", "frames/s"),
                "bench.pace": (sum(out["segments"]) * self.PACE_EPOCHS,
                               "pace_segments_per_s", "segment-steps/s"),
                "bench.generate": (self.FRAMES, "gen_frames_per_s", "frames/s")}

    def check(self, st, out):
        problems = []
        written, read = out["written"], out["read"]
        if len(read) != len(written):
            return [f"read {len(read)} clips, wrote {len(written)}"]
        if sum(c.num_frames for c in written) != 2 * st["frames"]:
            problems.append("augmented frame count is not twice the imported count")
        for w, r in zip(written, read):
            for a, b in ((w.rotations, r.rotations), (w.root_positions, r.root_positions)):
                # float32 storage: round-to-nearest error is at most 2^-24 relative
                if a.shape != b.shape or np.any(np.abs(a - b) > 2.0 ** -24 * np.abs(a) + 1e-38):
                    problems.append("reloaded clip differs beyond float32 rounding")
                    break
        for f in out["feats"]:
            if (f.degenerate or len(f.left_contacts) < 2 or len(f.right_contacts) < 2
                    or not np.all(np.isfinite(f.frequency)) or not f.frequency.mean() > 0):
                problems.append("degenerate gait features")
        if not all(math.isfinite(v) for v in out["mae"]):
            problems.append("non-finite pace loss")
        clip = out["clip"]
        if not (np.all(np.isfinite(clip.rotations)) and np.all(np.isfinite(clip.root_positions))):
            problems.append("non-finite generated motion")
        elif not np.abs(np.linalg.norm(clip.active_rotations, axis=-1) - 1.0).max() < 1e-9:
            problems.append("generated quaternions are not unit")
        return problems

    def fingerprint(self, out):
        clip = out["clip"]
        return {"read": [[c.num_frames, float(c.rotations.sum()), float(c.root_positions.sum())]
                         for c in out["read"]],
                "segments": out["segments"], "mae": out["mae"], "pace": out["pace"],
                "clip": [float(clip.rotations.sum()), clip.root_positions.sum(axis=0).tolist()]}

    def expected_calls(self, st, out):
        n = len(st["paths"])
        written = n * self.FACTOR * 2
        pace_steps = self.PACE_EPOCHS * self.PACE_CLIPS
        return {"motiondata.load_bvh": n, "motiondata.downsample": n,
                "motiondata.mirror": n * self.FACTOR,
                "motiondata.save_clip": written, "motiondata.load_clip": written,
                "motiondata.gait_features": self.PACE_CLIPS,
                "training.pace_example": self.PACE_CLIPS, "training.train_pace": 1,
                "models.pace_forward": pace_steps + 1, "optim.adam_step": pace_steps,
                "autodiff.backward": pace_steps, "models.generate": 1,
                "models.pose_step": self.INIT_FRAMES + self.FRAMES}


WORKLOADS = {w.name: w for w in (Train(), Evaluate(), Ik(), Locomotion())}
