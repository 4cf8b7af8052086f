"""The locomotion stage: trajectory splines, gait features, the pace
network, closed-loop generation along a spline, and pace training.

Conventions: y is up, the ground plane is (x, z), and characters face +z
at zero heading. Ground-plane 2-vectors are ordered (x, z). Gait phase
theta hits 0 (mod 2*pi) at left foot contacts and pi at right foot
contacts.

A spline's per-segment curvatures feed the pace network, one GRU sequence
node per direction (``autodiff.gru_sequence``), whose facing relative to
the tangent, footstep frequency and speed become the pose network's
control frames (``_pace_schedule``). ``pace_training_example`` derives the
pace network's targets from a clip's gait features.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import rotmath as rm
from .autodiff import Tensor
from .kinematics import expand_active
from .models import (ParamContainer, PoseNetwork, _GruStack, _linear, encode_pose, gru_specs,
                     linear_specs, save_checkpoint)
from .motiondata import MotionClip, rotate_clip, synth_skeleton
from .optim import AdamState
from .training import PaceTrainConfig, _adam_epoch, _epoch_log

# Centered box filter width for local-speed smoothing, in frames at 30 Hz.
LOWPASS_WIDTH_30HZ = 31
# Foot contact: speed below this fraction of mean root speed, with an
# absolute floor in units/frame for near-stationary clips.
CONTACT_SPEED_FRACTION = 0.05
CONTACT_SPEED_FLOOR = 1e-4


@dataclass(frozen=True)
class TrajectorySpline:
    """Equal-length piecewise-linear resampling of a ground-plane path.

    ``points`` is (S+1, 2) in (x, z); every chord has length
    ``segment_length``. ``curvatures[i]`` is the signed turning angle from
    segment i-1 to i divided by the segment length (0 for the first)."""

    points: np.ndarray
    segment_length: float
    tangents: np.ndarray = field(init=False)
    curvatures: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        d = np.diff(pts, axis=0)
        lengths = np.linalg.norm(d, axis=1)
        object.__setattr__(self, "tangents", d / lengths[:, None])
        t = self.tangents
        turn = np.zeros(len(t))
        # Signed in-plane angle between consecutive tangents.
        cross = t[:-1, 0] * t[1:, 1] - t[:-1, 1] * t[1:, 0]
        dot = np.einsum("ij,ij->i", t[:-1], t[1:])
        turn[1:] = np.arctan2(cross, dot)
        object.__setattr__(self, "curvatures", turn / self.segment_length)

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1

    @property
    def total_length(self) -> float:
        return self.num_segments * self.segment_length

    def position_at(self, s) -> np.ndarray:
        """Ground-plane point at arc length s (clamped to the spline)."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.total_length)
        idx = np.minimum((s / self.segment_length).astype(int),
                         self.num_segments - 1)
        frac = s - idx * self.segment_length
        return self.points[idx] + self.tangents[idx] * frac[..., None]


def fit_spline(root_positions: np.ndarray, segment_length: float) -> TrajectorySpline:
    """Resample a trajectory's ground-plane projection into chords of
    exactly ``segment_length`` by marching along the polyline."""
    pos = np.asarray(root_positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] not in (2, 3):
        raise ValueError(f"spline points must have shape (N, 2) or (N, 3), got {pos.shape}")
    bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
    if len(bad):  # a NaN would silently bridge or cut the march
        raise ValueError(f"spline point {bad[0]} is not finite: {pos[bad[0]].tolist()}")
    path = pos[:, [0, 2]] if pos.shape[1] == 3 else pos
    if len(path) < 2:
        raise ValueError("need at least 2 points")
    if not segment_length > 0:  # a zero length would append knots forever
        raise ValueError(f"segment length must be positive, got {segment_length}")
    points = [path[0]]
    cur = path[0]
    i = 0
    # a segment with both ends inside 0.98 L^2 of the knot cannot cross the
    # circle, whatever the rounding (convex, negative at both ends): skip it
    xs, zs = path[:, 0].tolist(), path[:, 1].tolist()
    inside = 0.98 * segment_length ** 2
    while True:
        # Walk forward to the first polyline point at Euclidean distance
        # >= L from the current spline knot, then solve on that segment.
        nxt = None
        cx, cz = cur.tolist()
        while i < len(path) - 1:
            if ((xs[i] - cx) ** 2 + (zs[i] - cz) ** 2 < inside
                    and (xs[i + 1] - cx) ** 2 + (zs[i + 1] - cz) ** 2 < inside):
                i += 1
                continue
            a, b = path[i], path[i + 1]
            # |a + t(b-a) - cur| = L for t in (0, 1]
            d = b - a
            f = a - cur
            aa = d @ d
            bb = 2.0 * (f @ d)
            cc = f @ f - segment_length ** 2
            disc = bb * bb - 4.0 * aa * cc
            if aa > 0 and disc >= 0:
                t = (-bb + np.sqrt(disc)) / (2.0 * aa)
                if 0.0 <= t <= 1.0:
                    nxt = a + t * d
                    # np.allclose(nxt, b) without its overhead
                    if (np.abs(nxt - b) <= 1e-8 + 1e-5 * np.abs(b)).all():
                        i += 1
                    break
            i += 1
        if nxt is None:
            break
        points.append(nxt)
        cur = nxt
    if len(points) < 2:
        raise ValueError("path shorter than one segment")
    return TrajectorySpline(np.array(points), segment_length)


@dataclass
class GaitFeatures:
    """Per-frame locomotion descriptors extracted from (or prescribing) a
    clip: heading direction on the ground, footstep phase and its rate,
    smoothed travel speed, and deviations from constant-speed travel."""

    facing: np.ndarray
    phase: np.ndarray
    frequency: np.ndarray
    local_speed: np.ndarray
    root_height: np.ndarray
    positional_offset: np.ndarray
    left_contacts: np.ndarray
    right_contacts: np.ndarray
    degenerate: bool = False


def _box_filter(x: np.ndarray, width: int) -> np.ndarray:
    width = max(1, int(width) | 1)  # odd
    if len(x) == 0:
        return x.copy()
    pad = width // 2
    padded = np.pad(x, pad, mode="edge")
    kernel = np.full(width, 1.0 / width)
    return np.convolve(padded, kernel, mode="valid")


def _contact_frames(speed: np.ndarray, threshold: float) -> np.ndarray:
    """Slowest frame of each contiguous run where speed stays below
    threshold."""
    below = speed < threshold
    if not below.any():
        return np.empty(0, dtype=int)
    edges = np.flatnonzero(np.diff(below.astype(int)))
    starts = np.concatenate([[0] if below[0] else [], edges[~below[edges]] + 1]).astype(int)
    ends = np.concatenate([edges[below[edges]] + 1, [len(speed)] if below[-1] else []]).astype(int)
    return np.array([s + int(np.argmin(speed[s:e])) for s, e in zip(starts, ends)],
                    dtype=int)


def _central_speed(points: np.ndarray) -> np.ndarray:
    """Per-frame speed in units/frame via central differences."""
    return np.linalg.norm(np.gradient(points, axis=0), axis=-1)


def extract_gait_features(clip: MotionClip, left_foot: int,
                          right_foot: int) -> GaitFeatures:
    """Detect foot contacts from FK foot speeds and derive the phase,
    frequency, smoothed speed, and positional offset of the gait.

    Phase is 0 (mod 2*pi) at left contacts and pi at right contacts,
    linearly interpolated between detected contact events. With no
    contacts the clip is flagged degenerate and frequency is 0.
    """
    t = clip.num_frames
    fr = clip.frame_rate
    positions = clip.positions()
    ground = clip.root_positions[:, [0, 2]]
    step = np.linalg.norm(np.diff(ground, axis=0), axis=1)
    inst_speed = np.concatenate([step[:1], step]) * fr  # units/s
    width = int(round(LOWPASS_WIDTH_30HZ * fr / 30.0))
    local_speed = _box_filter(inst_speed, width)
    offset = np.cumsum(inst_speed - local_speed) / fr

    mean_step = float(step.mean()) if len(step) else 0.0
    threshold = max(CONTACT_SPEED_FRACTION * mean_step, CONTACT_SPEED_FLOOR)
    if mean_step < CONTACT_SPEED_FLOOR:
        # Stationary root: there is no gait to phase-lock against.
        left_c = right_c = np.empty(0, dtype=int)
    else:
        left_c = _contact_frames(_central_speed(positions[:, left_foot]), threshold)
        right_c = _contact_frames(_central_speed(positions[:, right_foot]), threshold)

    events = sorted([(f, 0) for f in left_c] + [(f, 1) for f in right_c])
    frames = np.arange(t)
    if not events:
        phase = np.zeros(t)
        frequency = np.zeros(t)
        degenerate = True
    else:
        degenerate = False
        ev_frames = [events[0][0]]
        ev_phase = [0.0 if events[0][1] == 0 else np.pi]
        for f, side in events[1:]:
            if f == ev_frames[-1]:
                continue
            target = 0.0 if side == 0 else np.pi
            # Advance to the next phase value congruent to the contact side.
            prev = ev_phase[-1]
            step_ph = np.mod(target - prev, 2.0 * np.pi)
            if step_ph < 1e-9:
                step_ph = 2.0 * np.pi
            ev_frames.append(f)
            ev_phase.append(prev + step_ph)
        ev_frames = np.array(ev_frames, dtype=float)
        ev_phase = np.array(ev_phase)
        if len(ev_frames) == 1:
            phase = np.full(t, ev_phase[0])
        else:
            phase = np.interp(frames, ev_frames, ev_phase)
            # Extrapolate the edge slopes past the first/last contact.
            s0 = (ev_phase[1] - ev_phase[0]) / (ev_frames[1] - ev_frames[0])
            s1 = (ev_phase[-1] - ev_phase[-2]) / (ev_frames[-1] - ev_frames[-2])
            before = frames < ev_frames[0]
            after = frames > ev_frames[-1]
            phase[before] = ev_phase[0] + s0 * (frames[before] - ev_frames[0])
            phase[after] = ev_phase[-1] + s1 * (frames[after] - ev_frames[-1])
        frequency = np.gradient(phase) * fr / (2.0 * np.pi)

    forward = rm.rotate_vector(clip.rotations[:, 0], np.array([0.0, 0.0, 1.0]))
    facing = forward[:, [0, 2]]
    norms = np.linalg.norm(facing, axis=1, keepdims=True)
    facing = np.where(norms > 1e-9, facing / np.maximum(norms, 1e-9),
                      np.array([0.0, 1.0]))
    return GaitFeatures(facing=facing, phase=phase, frequency=frequency,
                        local_speed=local_speed,
                        root_height=clip.root_positions[:, 1].copy(),
                        positional_offset=offset,
                        left_contacts=left_c, right_contacts=right_c,
                        degenerate=degenerate)


def synth_gait(n_joints: int = 10, frequency: float = 1.0,
               speed: float = 1.0, duration: float = 10.0, seed: int = 0,
               frame_rate: float = 25.0):
    """Procedural walk cycle with analytically known contacts.

    ``frequency`` is full gait cycles per second (one left plus one right
    footstep). Hip swing amplitude is chosen so each foot's world speed
    dips to zero at its contact instants. Returns
    (Skeleton, MotionClip, GaitFeatures) with ground-truth features.
    """
    rng = np.random.default_rng(seed)
    n_spine = max(1, min(3, n_joints - 7))
    skel = synth_skeleton(n_spine)
    leg = 0.9  # upper + lower leg length
    n = max(2, int(round(duration * frame_rate)))
    t = np.arange(n) / frame_rate
    omega = 2.0 * np.pi * frequency
    theta = omega * t
    amp = speed / (leg * omega) if speed > 0 else 0.0
    amp = min(amp, 0.6)  # keep the swing physical at high speed

    hip_l = amp * np.sin(theta)
    hip_r = amp * np.sin(theta - np.pi)
    # (1-cos)^2 keeps the knee's foot-speed contribution O(theta^3) at
    # contact so the speed minimum stays on the nominal contact instant.
    knee_amp = 0.25 * amp
    knee_l = knee_amp * (1.0 - np.cos(theta)) ** 2
    knee_r = knee_amp * (1.0 - np.cos(theta - np.pi)) ** 2
    sway_phase = rng.uniform(0.0, 2.0 * np.pi)
    sway = 0.05 * amp * np.sin(theta + sway_phase)

    x_axis = np.array([1.0, 0.0, 0.0])
    y_axis = np.array([0.0, 1.0, 0.0])
    rots = np.zeros((n, skel.num_joints, 4))
    rots[..., 0] = 1.0
    name_to_idx = {nm: i for i, nm in enumerate(skel.names)}
    rots[:, name_to_idx["spine0"]] = rm.axis_angle_quat(y_axis, sway)
    for side, hip, knee in (("l", hip_l, knee_l), ("r", hip_r, knee_r)):
        rots[:, name_to_idx[f"{side}_upleg"]] = rm.axis_angle_quat(x_axis, hip)
        rots[:, name_to_idx[f"{side}_lowleg"]] = rm.axis_angle_quat(x_axis, knee)

    height = 0.95 + 0.01 * np.cos(2.0 * theta)
    root = np.stack([np.zeros(n), height, speed * t], axis=1)
    clip = MotionClip(skel, frame_rate, root, rots, subject="synthetic",
                      action=f"walk_v{speed:g}_f{frequency:g}")

    if speed > 0:
        left_times = np.arange(0.0, duration, 1.0 / frequency)
        right_times = left_times + 0.5 / frequency
        left_c = np.unique(np.round(left_times * frame_rate).astype(int))
        right_c = np.unique(np.round(right_times * frame_rate).astype(int))
        left_c = left_c[left_c < n]
        right_c = right_c[right_c < n]
        freq = np.full(n, frequency)
        phase = theta
        degenerate = False
    else:
        left_c = right_c = np.empty(0, dtype=int)
        freq = np.zeros(n)
        phase = np.zeros(n)
        degenerate = True
    features = GaitFeatures(
        facing=np.tile([0.0, 1.0], (n, 1)), phase=phase, frequency=freq,
        local_speed=np.full(n, float(speed)), root_height=height.copy(),
        positional_offset=np.zeros(n), left_contacts=left_c,
        right_contacts=right_c, degenerate=degenerate)
    return skel, clip, features


def make_synth_corpus(n_clips: int = 8, seed: int = 0,
                      duration: float = 12.0, frame_rate: float = 25.0):
    """Corpus of walk cycles with varied speed and cadence, one shared
    skeleton. Returns (Skeleton, [MotionClip])."""
    rng = np.random.default_rng(seed)
    clips = []
    skel = None
    for k in range(n_clips):
        speed = float(rng.uniform(0.6, 1.6))
        freq = float(rng.uniform(0.7, 1.3))
        heading = float(rng.uniform(0.0, 2.0 * np.pi))
        skel, clip, _ = synth_gait(frequency=freq, speed=speed,
                                   duration=duration,
                                   seed=int(rng.integers(1 << 31)),
                                   frame_rate=frame_rate)
        clips.append(rotate_clip(clip, heading))
    return skel, clips


# -- pace network and generation ------------------------------------------------

@dataclass
class PaceNetworkConfig:
    hidden: int = 30
    variant: str = "bidirectional"  # bidirectional | online
    delay: int = 4

    def __post_init__(self):
        if self.variant not in ("bidirectional", "online"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not isinstance(self.delay, int) or self.delay < 0:
            raise ValueError(f"delay must be an integer >= 0, got {self.delay!r}")


class PaceNetwork(ParamContainer):
    """Maps per-segment spline curvature to (facing versor relative to the
    tangent, footstep frequency, local speed).

    The offline variant reads the whole spline in both directions; the
    online variant emits each segment's output after seeing ``delay``
    further segments.
    """

    OUT_DIM = 4  # facing (2) + frequency + speed

    def __init__(self, config: PaceNetworkConfig, seed: int = 0, params: dict | None = None):
        self.config = config
        prefixes = ["fwd", "bwd"] if config.variant == "bidirectional" else ["fwd"]
        specs = [spec for prefix in prefixes for spec in gru_specs([prefix], 1, config.hidden)]
        super().__init__(specs + linear_specs("head", len(prefixes) * config.hidden, self.OUT_DIM),
                         seed, params)
        self._grus = {prefix: _GruStack(self.params, [prefix], config.hidden)
                      for prefix in prefixes}

    def forward(self, curvatures) -> dict:
        """Per-segment outputs for an array of S curvatures.

        Returns facing (S, 2) unit versors, frequency (S,), speed (S,)."""
        curv = np.asarray(curvatures, dtype=float).reshape(1, -1, 1)
        s = curv.shape[1]
        if s == 0:
            raise ValueError("need at least one segment")

        def run(prefix, x):
            gru = self._grus[prefix]
            return gru.sequence(x, gru.init_state(1))[0][0]

        fwd = run("fwd", curv)
        if self.config.variant == "bidirectional":
            feats = ad.concat([fwd, run("bwd", curv[:, ::-1])[::-1]], axis=-1)
        else:
            feats = fwd[np.minimum(np.arange(s) + self.config.delay, s - 1)]
        raw = _linear(self.params, "head", feats)
        # tiny forward bias keeps the norm nonzero when the head outputs
        # an exactly zero facing (e.g. an untrained net on zero curvature)
        fac = raw[:, :2] + np.array([1e-9, 0.0])
        return {"facing": fac / ad.l2norm(fac, axis=-1, keepdims=True),
                "frequency": raw[:, 2], "speed": raw[:, 3], "raw": raw}


def save_pace_checkpoint(path, net: PaceNetwork, config: PaceTrainConfig) -> None:
    save_checkpoint(path, "pace", asdict(net.config), net.param_arrays(),
                    {"train_config": asdict(config)})


def pace_network_from_checkpoint(ck: dict) -> PaceNetwork:
    config = PaceNetworkConfig(**ck["config"])
    return PaceNetwork(config, params={k: ad.parameter(v) for k, v in ck["arrays"].items()})


class GenerationDivergedError(RuntimeError):
    pass


def _rotate2(v: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Rotate ground-plane vector(s) v by the angle of unit vector(s) by,
    treating (x, z) components as the complex plane."""
    return np.stack([by[..., 0] * v[..., 0] - by[..., 1] * v[..., 1],
                     by[..., 1] * v[..., 0] + by[..., 0] * v[..., 1]], axis=-1)


def _pace_schedule(spline, pace: dict, steps: int, frame_rate: float):
    """Arc positions (steps,) and control frames (steps, CONTROL_DIM) from
    the pace network's outputs: frame k reads [tangent, world facing, gait
    signal] of the segment under its arc position, whose speed and
    frequency advance arc and gait phase to frame k + 1, as a scalar loop."""
    speed = np.maximum(ad._array(pace["speed"]), 0.0)
    step_speed, freq = speed.tolist(), ad._array(pace["frequency"]).tolist()
    last = spline.num_segments - 1
    arc, phase, seg = np.empty(steps), np.empty(steps), np.empty(steps, dtype=int)
    s = theta = 0.0
    for k in range(steps):
        i = seg[k] = int(min(max(s / spline.segment_length, 0), last))
        arc[k], phase[k] = s, theta
        s += step_speed[i] / frame_rate
        theta += 2.0 * np.pi * freq[i] / frame_rate
    tangent = spline.tangents[seg]
    gait = speed[seg][:, None] * np.stack([np.cos(phase), np.sin(phase)], axis=1)
    facing = _rotate2(ad._array(pace["facing"])[seg], tangent)
    return arc, np.concatenate([tangent, facing, gait], axis=1)


@ad.no_grad()
def generate_locomotion(pose_net: PoseNetwork, pace_net: PaceNetwork, spline,
                        init_clip, num_frames: int, frame_rate: float):
    """Closed-loop locomotion along a trajectory spline, at the init clip's
    frame rate (``frame_rate`` must equal it).

    The pace network supplies per-segment facing/frequency/speed; frequency
    integrates to the gait phase and speed to the arc position. That
    schedule comes from the pace network alone and is built before the
    loop. The pose network consumes its own outputs (pose, translations)
    plus the control frame, and the root follows the spline at the frame's
    arc position plus the predicted trajectory offset.
    """
    cfg = pose_net.config
    skel = init_clip.skeleton
    if not (cfg.include_controls and cfg.include_translations):
        raise ValueError("generation needs a model with controls and translations")
    if num_frames < 1:
        raise ValueError(f"need at least 1 frame to generate, got {num_frames}")
    if frame_rate != init_clip.frame_rate:
        raise ValueError(f"frame rate {frame_rate} is not the init clip's {init_clip.frame_rate}")
    n_init = init_clip.num_frames
    if n_init < 1:
        raise ValueError("the init clip has no frames")

    pace = pace_net.forward(spline.curvatures)
    if not all(np.isfinite(ad._array(pace[k])).all() for k in ("facing", "frequency", "speed")):
        raise GenerationDivergedError("the pace network's output is not finite")
    arc, controls = _pace_schedule(spline, pace, n_init + num_frames, frame_rate)
    init_q = init_clip.active_rotations
    init_pose = encode_pose(init_q, cfg.parameterization)
    init_trans = np.stack([init_clip.root_positions[:, 1], np.zeros(n_init)], axis=1)
    height_limit = 10.0 * max(skel.height(), 1e-6)

    # Step g consumes frame g with control g: an init frame, or from n_init
    # on the fed-back prediction, checked and recorded first. The last
    # step's prediction is never used. The benchmark pins these
    # n_init + num_frames steps; conditioning with one forward_window call,
    # as _autoregress does, would drop that step together with the pin.
    state = pose_net.init_state(1)
    frames_q, frames_t = [], []
    for g in range(n_init + num_frames):
        if g < n_init:
            pose, quats, trans = (a[g][None] for a in (init_pose, init_q, init_trans))
        else:
            pose, quats, trans = out["feedback"], out["quats"], out["translations"]
            q, t = ad._array(quats)[0], ad._array(trans)[0]
            if (not np.isfinite(q).all() or not np.isfinite(t).all()
                    or np.abs(t).max() > height_limit):
                raise GenerationDivergedError(
                    f"pose or translation left the {height_limit:.3g} envelope "
                    f"at frame {g - n_init}")
            frames_q.append(q)
            frames_t.append(t)
        out = pose_net.step(pose, state, prev_quats=quats, translations=trans,
                            controls=controls[g][None])
        state = out["state"]

    trans = np.stack(frames_t)  # root height, arc offset
    ground = spline.position_at(arc[n_init:] + trans[:, 1])
    return MotionClip(skel, frame_rate, np.stack([ground[:, 0], trans[:, 0], ground[:, 1]], axis=1),
                      expand_active(skel, np.stack(frames_q)), subject="generated",
                      action="locomotion")


# -- pace training -------------------------------------------------------------

PACE_LOG_COLUMNS = ("epoch", "lr", "mae")


def pace_training_example(clip, features, segment_length: float | None = None):
    """Per-segment curvature inputs and (facing, frequency, speed) targets
    for one clip. Facing targets are expressed relative to the spline
    tangent. Default segment length: one quarter of the average stride."""
    if segment_length is None:
        contacts = np.sort(np.concatenate([features.left_contacts,
                                           features.right_contacts]))
        if len(contacts) >= 2 and not features.degenerate:
            steps = np.diff(contacts) / clip.frame_rate
            stride = float(np.mean(steps)) * float(np.mean(features.local_speed))
            segment_length = max(stride / 4.0, 1e-3)
        else:
            segment_length = max(clip.duration * float(np.mean(features.local_speed)) / 16.0, 1e-3)
    spline = fit_spline(clip.root_positions, segment_length)

    ground = clip.root_positions[:, [0, 2]]
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(ground, axis=0), axis=1))])
    seg = np.clip((arc / segment_length).astype(int), 0, spline.num_segments - 1)

    s = spline.num_segments
    counts = np.bincount(seg, minlength=s)
    # rotate by the conjugate tangent: facing relative to the spline
    rel = _rotate2(features.facing, spline.tangents[seg] * [1.0, -1.0])
    targets = np.stack([np.bincount(seg, w, minlength=s) for w in
                        (rel[:, 0], rel[:, 1], features.frequency, features.local_speed)], axis=1)
    targets /= np.maximum(counts, 1)[:, None]  # per-segment means
    facing = targets[:, :2]
    # a dot product per row, as np.linalg.norm of one vector computes it
    norm = np.sqrt(facing[:, None] @ facing[:, :, None])[:, 0]
    targets[:, :2] = np.where(norm > 1e-9, facing / np.maximum(norm, 1e-9), [1.0, 0.0])
    # forward-fill segments the trajectory skipped over
    targets = targets[np.maximum.accumulate(np.where(counts > 0, np.arange(s), 0))]
    return spline.curvatures.copy(), targets, spline


def train_pace(net: PaceNetwork, examples, config: PaceTrainConfig,
               log_path=None) -> list:
    """Minimize the mean absolute error of per-segment pace targets.

    ``examples`` is a list of (curvatures (S,), targets (S, 4)) pairs."""
    if not examples:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    adam = AdamState()

    def loss_of(example):
        curv, targets = example[0], example[1]
        out = net.forward(curv)
        pred = ad.concat([out["facing"],
                          ad.reshape(out["frequency"], (len(curv), 1)),
                          ad.reshape(out["speed"], (len(curv), 1))], axis=-1)
        return ad.tmean(ad.absval(pred - Tensor(targets)))

    history = []
    with _epoch_log(log_path, PACE_LOG_COLUMNS, 0) as log:
        for epoch in range(config.epochs):
            lr = config.lr_at(epoch)
            batches = (examples[i] for i in rng.permutation(len(examples)))
            losses, _ = _adam_epoch(net, adam, lr, batches, loss_of)
            history.append({"epoch": epoch, "lr": lr, "mae": float(np.mean(losses))})
            log(history[-1])
    return history
