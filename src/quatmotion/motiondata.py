"""Motion clip storage, preprocessing, and augmentation.

Conventions: y is up, the ground plane is (x, z), and characters face +z
at zero heading.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import bvh as _bvh
from . import rotmath as rm
from .kinematics import Skeleton, forward_kinematics

QMC_MAGIC = b"QMC1"


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
                # converted at most once, and written from the array's own buffer
                fh.write(np.ascontiguousarray(np.asarray(a, dtype=float), dtype=dtype).data)
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


# perfbench still reaches these locomotion names here and traces some of them by
# this module, so each is looked up at call time, which finds the traced object.
# The lookup goes when ROADMAP item 3 renames the spans.
def __getattr__(name: str):
    if name in ("fit_spline", "extract_gait_features", "make_synth_corpus"):
        return getattr(sys.modules[f"{__package__}.locomotion"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
