"""Motion clip storage, preprocessing, and gait feature extraction.

Conventions: y is up, the ground plane is (x, z), and characters face +z
at zero heading. Ground-plane 2-vectors are ordered (x, z). Gait phase
theta hits 0 (mod 2*pi) at left foot contacts and pi at right foot
contacts.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from . import bvh as _bvh
from . import rotmath as rm
from .kinematics import Skeleton, forward_kinematics

QMC_MAGIC = b"QMC1"

# Centered box filter width for local-speed smoothing, in frames at 30 Hz.
LOWPASS_WIDTH_30HZ = 31
# Foot contact: speed below this fraction of mean root speed, with an
# absolute floor in units/frame for near-stationary clips.
CONTACT_SPEED_FRACTION = 0.05
CONTACT_SPEED_FLOOR = 1e-4


@dataclass
class MotionClip:
    """A fixed-rate motion segment over a shared skeleton.

    ``rotations`` holds local quaternions for every joint, (T, J, 4);
    continuity is enforced on construction so consecutive frames of each
    joint have non-negative dot products.
    """

    skeleton: Skeleton
    frame_rate: float
    root_positions: np.ndarray
    rotations: np.ndarray
    subject: str = ""
    action: str = ""

    def __post_init__(self):
        self.root_positions = np.asarray(self.root_positions, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        if self.rotations.ndim != 3 or self.rotations.shape[-1] != 4:
            raise ValueError("rotations must have shape (T, J, 4)")
        if self.rotations.shape[1] != self.skeleton.num_joints:
            raise ValueError("rotation joint count does not match skeleton")
        if self.root_positions.shape != (self.rotations.shape[0], 3):
            raise ValueError("root_positions must have shape (T, 3)")
        if not 0 < self.frame_rate < np.inf:
            raise ValueError(f"frame_rate must be positive and finite, got {self.frame_rate}")
        self.rotations = rm.fix_continuity(self.rotations)

    @property
    def num_frames(self) -> int:
        return self.rotations.shape[0]

    @property
    def duration(self) -> float:
        return self.num_frames / self.frame_rate

    @property
    def active_rotations(self) -> np.ndarray:
        """Rotations of the joints a model predicts, (T, A, 4)."""
        return self.rotations[:, self.skeleton.active_indices]

    def positions(self) -> np.ndarray:
        """FK joint positions, (T, J, 3)."""
        return forward_kinematics(self.skeleton, self.active_rotations,
                                  self.root_positions)

    def slice(self, start: int, stop: int) -> "MotionClip":
        return MotionClip(self.skeleton, self.frame_rate,
                          self.root_positions[start:stop],
                          self.rotations[start:stop],
                          self.subject, self.action)


def load_bvh(path) -> tuple[Skeleton, MotionClip]:
    skel, frame_rate, root_positions, rotations = _bvh.load_bvh(path)
    clip = MotionClip(skel, frame_rate, root_positions, rotations)
    return skel, clip


def save_bvh(path, clip: MotionClip) -> None:
    _bvh.save_bvh(path, clip.skeleton, clip.frame_rate,
                  clip.root_positions, clip.rotations)


def save_clip(path, clip: MotionClip) -> None:
    """Write one clip: a container (see ``_write_container``) whose bodies
    are the float32 root positions (T, 3) and rotations (T, J, 4)."""
    header = {
        "skeleton": clip.skeleton.to_dict(),
        "frame_rate": clip.frame_rate,
        "num_frames": clip.num_frames,
        "subject": clip.subject,
        "action": clip.action,
    }
    _write_container(path, QMC_MAGIC, header, (clip.root_positions, clip.rotations), "<f4")


def _write_container(path, magic: bytes, header: dict, arrays, dtype: str) -> None:
    """Write magic bytes, a little-endian uint32 header length, the JSON
    header, then each array's values as ``dtype``. The file is written to
    ``path.tmp`` and then moved over ``path``, so a crash mid-write keeps
    the previous file; a write or rename that raises removes ``path.tmp``."""
    blob = json.dumps(header).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for a in arrays:
                fh.write(np.asarray(a, dtype=float).astype(dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _read_exact(fh, size: int) -> bytes:
    """Read ``size`` bytes; a file with fewer left is a ValueError, raised
    before a corrupt size can ask for a huge allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= size <= left:
        raise ValueError(f"truncated file ({left} of {size} bytes left)")
    return fh.read(size)


@contextmanager
def _read_header(fh, path, magic: bytes, what: str):
    """Check the magic bytes, then yield the length-prefixed JSON header.
    What a corrupt file raises, here or in the ``with`` block that reads
    the rest, becomes a ValueError naming the file."""
    try:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"not a {what} file")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        yield json.loads(_read_exact(fh, hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError,
            TypeError, RecursionError) as e:
        raise ValueError(f"{path}: corrupt {what} header "
                         f"({type(e).__name__}: {e})") from None
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None


def load_clip(path) -> MotionClip:
    with open(path, "rb") as fh, _read_header(fh, path, QMC_MAGIC, "motion clip") as header:
        skel = Skeleton.from_dict(header["skeleton"])
        t = header["num_frames"]
        j = skel.num_joints
        root = np.frombuffer(_read_exact(fh, t * 3 * 4), dtype="<f4").reshape(t, 3)
        rots = np.frombuffer(_read_exact(fh, t * j * 4 * 4), dtype="<f4").reshape(t, j, 4)
        return MotionClip(skel, header["frame_rate"], root.astype(float),
                          rots.astype(float), header.get("subject", ""),
                          header.get("action", ""))


def save_dataset(directory, clips) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, clip in enumerate(clips):
        save_clip(os.path.join(directory, f"clip_{i:05d}.qmc"), clip)


def load_dataset(directory) -> list:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".qmc"))
    if not names:
        raise ValueError(f"{directory}: no .qmc clips found")
    return [load_clip(os.path.join(directory, n)) for n in names]


def downsample_all_phases(clip: MotionClip, factor: int) -> list:
    """Split into ``factor`` clips at 1/factor rate, phase i keeping frames
    i, i+factor, ...; together the phases partition the original frames."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor > clip.num_frames:
        raise ValueError("factor exceeds frame count")
    out = []
    for phase in range(factor):
        out.append(MotionClip(clip.skeleton, clip.frame_rate / factor,
                              clip.root_positions[phase::factor],
                              clip.rotations[phase::factor],
                              clip.subject, clip.action))
    return out


def _swap_permutation(skel: Skeleton, joint_swap_map: dict) -> np.ndarray:
    """Resolve a left/right name (or index) pairing into a full joint
    permutation, validating that it is an involution consistent with the
    skeleton's topology and offsets."""
    if not isinstance(joint_swap_map, dict):
        raise ValueError("joint swap map must be a mapping")
    index = {n: i for i, n in enumerate(skel.names)}

    def joint(key) -> int:
        i = index.get(key) if isinstance(key, str) else key
        if not isinstance(i, (int, np.integer)) or not 0 <= i < skel.num_joints:
            raise ValueError(f"swap map entry {key!r} is not a joint of the skeleton")
        return int(i)

    perm = np.arange(skel.num_joints)
    for a, b in joint_swap_map.items():
        ia, ib = joint(a), joint(b)
        perm[ia] = ib
        perm[ib] = ia
    if not np.array_equal(perm[perm], np.arange(skel.num_joints)):
        raise ValueError("joint swap map is not an involution")
    topology = (skel.parents >= 0) & (perm[skel.parents] != skel.parents[perm])
    mirrored = skel.offsets * np.array([-1.0, 1.0, 1.0])
    offsets = ~np.isclose(mirrored, skel.offsets[perm], atol=1e-6).all(axis=1)
    for j in np.flatnonzero(topology | offsets):  # the first failing joint raises
        if topology[j]:
            raise ValueError(f"swap map breaks topology at joint {skel.names[j]!r}")
        raise ValueError(
            f"offsets of {skel.names[j]!r} and {skel.names[perm[j]]!r} are not "
            "mirror images; swap map is incomplete or skeleton asymmetric")
    return perm


def mirror(clip: MotionClip, joint_swap_map: dict) -> MotionClip:
    """Reflect the motion across the x = 0 plane.

    Paired joints exchange rotations, each quaternion's y and z components
    are negated (conjugation by the reflection), and root x is negated.
    """
    perm = _swap_permutation(clip.skeleton, joint_swap_map)
    rots = clip.rotations[:, perm].copy()
    rots[..., 2] *= -1.0
    rots[..., 3] *= -1.0
    root = clip.root_positions * np.array([-1.0, 1.0, 1.0])
    return MotionClip(clip.skeleton, clip.frame_rate, root, rots,
                      clip.subject, clip.action)


def rotate_clip(clip: MotionClip, angle: float) -> MotionClip:
    """Rigidly rotate the whole trajectory about the vertical axis."""
    q = rm.axis_angle_quat(np.array([0.0, 1.0, 0.0]), angle)
    rots = clip.rotations.copy()
    rots[:, 0] = rm.qmul(q, rots[:, 0])
    root = rm.rotate_vector(q, clip.root_positions)
    return MotionClip(clip.skeleton, clip.frame_rate, root, rots,
                      clip.subject, clip.action)


def spin_clip(clip: MotionClip, revolutions: float) -> MotionClip:
    """Add a steady vertical-axis spin to the root rotation across the
    clip. Root-heading Euler angles then sweep repeatedly through the
    +-pi wrap, which stresses angle-space parameterizations."""
    t = clip.num_frames
    yaw = np.linspace(0.0, 2.0 * np.pi * revolutions, t)
    q = rm.axis_angle_quat(np.array([0.0, 1.0, 0.0]), yaw)
    rots = clip.rotations.copy()
    rots[:, 0] = rm.qmul(q, rots[:, 0])
    return MotionClip(clip.skeleton, clip.frame_rate, clip.root_positions.copy(),
                      rots, clip.subject, clip.action + "_spin")


def prune_constant_joints(skel: Skeleton, clips, tol: float = 1e-4) -> Skeleton:
    """Mark joints whose rotation never strays more than ``tol`` geodesic
    radians from its mean as inactive, freezing them at their first
    observed value. The root is never pruned."""
    if not clips:
        raise ValueError("clips must be non-empty")
    dof = skel.dof_active.copy()
    const = skel.constant_rotations.copy()
    for j in range(1, skel.num_joints):
        if not dof[j]:
            continue
        stacked = np.concatenate([c.rotations[:, j] for c in clips], axis=0)
        mean = rm.quat_mean(stacked)
        dev = rm.quat_geodesic_angle(stacked, mean)
        if float(dev.max()) < tol:
            dof[j] = False
            const[j] = clips[0].rotations[0, j]
    return Skeleton(list(skel.names), skel.parents.copy(),
                    skel.offsets.copy(), dof, const,
                    list(skel.euler_orders))


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

    @property
    def gait_signal(self) -> np.ndarray:
        """A*[cos theta, sin theta] with amplitude = local speed, (T, 2)."""
        return self.local_speed[:, None] * np.stack(
            [np.cos(self.phase), np.sin(self.phase)], axis=1)


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


def synth_skeleton(n_spine: int = 1) -> Skeleton:
    """Small sagittally-symmetric biped: root, a spine chain, and
    upper-leg/lower-leg/foot per side."""
    joints = [{"name": "root", "parent": -1, "offset": [0.0, 0.0, 0.0]}]
    parent = 0
    for s in range(n_spine):
        joints.append({"name": f"spine{s}", "parent": parent,
                       "offset": [0.0, 0.4, 0.0]})
        parent = len(joints) - 1
    joints.append({"name": "head_end", "parent": parent,
                   "offset": [0.0, 0.25, 0.0]})
    for side, sx in (("l", 1.0), ("r", -1.0)):
        hip = len(joints)
        joints.append({"name": f"{side}_upleg", "parent": 0,
                       "offset": [0.12 * sx, -0.05, 0.0]})
        joints.append({"name": f"{side}_lowleg", "parent": hip,
                       "offset": [0.0, -0.45, 0.0]})
        joints.append({"name": f"{side}_foot", "parent": hip + 1,
                       "offset": [0.0, -0.45, 0.0]})
    skel = Skeleton.from_joints(joints)
    head = [i for i, n in enumerate(skel.names) if n == "head_end"][0]
    skel.dof_active[head] = False
    return skel


SYNTH_SWAP_MAP = {"l_upleg": "r_upleg", "l_lowleg": "r_lowleg",
                  "l_foot": "r_foot"}


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


class EpisodeSampler:
    """Draws fixed-length windows uniformly over all valid starting frames
    across a clip list, using an owned seeded generator."""

    def __init__(self, clips, episode_length: int, seed: int = 0):
        self.clips = list(clips)
        self.episode_length = int(episode_length)
        self.rng = np.random.default_rng(seed)
        counts = np.array([max(0, c.num_frames - self.episode_length + 1)
                           for c in self.clips])
        if counts.sum() == 0:
            raise ValueError("no clip is long enough for the episode length")
        self._counts = counts
        self._cum = np.concatenate([[0], np.cumsum(counts)])

    def sample(self, batch_size: int) -> dict:
        """Batched episode arrays, each drawn uniformly over the valid
        (clip, start frame) pairs: active rotations (B, n, A, 4) and root
        positions (B, n, 3)."""
        flat = self.rng.integers(0, self._cum[-1], size=batch_size)
        ci = np.searchsorted(self._cum, flat, side="right") - 1
        idx = list(zip(ci.tolist(), (flat - self._cum[ci]).tolist()))
        rots = np.stack([
            self.clips[ci].active_rotations[s:s + self.episode_length]
            for ci, s in idx])
        root = np.stack([
            self.clips[ci].root_positions[s:s + self.episode_length]
            for ci, s in idx])
        return {"rotations": rots, "root_positions": root}
