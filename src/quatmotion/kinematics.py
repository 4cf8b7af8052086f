"""Parameterized skeletons, quaternion-space forward kinematics, positional
error metrics, and inverse-kinematics reprojection.

FK composes world rotations with quaternion products only; bone offsets are
constant, so bone lengths are preserved structurally for any pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rotmath import (TAIT_BRYAN_ORDERS, InvalidRotationError, expmap_to_quat, qconj, qmul,
                      _cross, _rotate_vector_unchecked)

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
# IK damping floor: an active leaf joint has a zero Jacobian column, and this
# keeps its normal equations nonsingular with a step of exactly zero
_LM_EPS = 1e-9
_LM_TOL = 1e-8  # IK stop rule: the relative cost decrease at which a frame is done


@dataclass
class Skeleton:
    """Kinematic tree stored as parallel per-joint arrays.

    Joints are topologically sorted (parent index < child index) with a
    single root at index 0 (parent -1). Joints with ``dof_active = False``
    are excluded from model I/O and use ``constant_rotations`` inside FK,
    so positions stay exact after pruning.
    """

    names: list
    parents: np.ndarray
    offsets: np.ndarray
    dof_active: np.ndarray
    constant_rotations: np.ndarray
    euler_orders: list = field(default_factory=list)

    def __post_init__(self):
        parents = np.asarray(self.parents)
        if parents.dtype.kind == "f" and not np.all(np.isfinite(parents)
                                                    & (parents == np.trunc(parents))):
            raise ValueError(f"skeleton parents must be integers, got {parents.tolist()}")
        self.parents = parents.astype(int)
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.dof_active = np.asarray(self.dof_active, dtype=bool)
        self.constant_rotations = np.asarray(self.constant_rotations, dtype=float)
        j = len(self.names)
        if self.parents.shape != (j,) or self.offsets.shape != (j, 3):
            raise ValueError("inconsistent skeleton arrays")
        if self.dof_active.shape != (j,):
            raise ValueError(f"dof_active must have shape ({j},), got {self.dof_active.shape}")
        if not all(isinstance(name, str) for name in self.names):
            raise ValueError("joint names must be strings")
        repeated = sorted({name for name in self.names if self.names.count(name) > 1})
        if repeated:
            raise ValueError(f"duplicate joint names: {', '.join(map(repr, repeated))}")
        if self.constant_rotations.shape != (j, 4):
            raise ValueError(f"constant_rotations must have shape ({j}, 4), "
                             f"got {self.constant_rotations.shape}")
        if self.parents[0] != -1 or np.any(self.parents[1:] < 0):
            raise ValueError("skeleton must have exactly one root at index 0")
        if np.any(self.parents[1:] >= np.arange(1, j)):
            raise ValueError("skeleton joints must be topologically sorted")
        if not self.euler_orders:
            self.euler_orders = ["zyx"] * j
        if len(self.euler_orders) != j:
            raise ValueError(f"euler_orders must hold one order per joint ({j}), "
                             f"got {len(self.euler_orders)}")
        for name, order in zip(self.names, self.euler_orders):
            if order not in TAIT_BRYAN_ORDERS:
                raise ValueError(f"joint {name!r} has Euler order {order!r}, not one of "
                                 f"{', '.join(TAIT_BRYAN_ORDERS)}")

    @classmethod
    def from_joints(cls, joints: list) -> "Skeleton":
        """Build from dicts {name, parent, offset, euler_order?}."""
        names = [j["name"] for j in joints]
        parents = [j["parent"] for j in joints]
        offsets = [j["offset"] for j in joints]
        orders = [j.get("euler_order", "zyx") for j in joints]
        n = len(joints)
        return cls(names, np.array(parents), np.array(offsets, dtype=float),
                   np.ones(n, dtype=bool), np.tile(IDENTITY_QUAT, (n, 1)), orders)

    @property
    def num_joints(self) -> int:
        return len(self.names)

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.dof_active)

    @property
    def num_active(self) -> int:
        return int(self.dof_active.sum())

    @property
    def active_euler_orders(self) -> tuple:
        """Euler orders of the active joints, in model-I/O order."""
        return tuple(self.euler_orders[a] for a in self.active_indices)

    def bone_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.offsets, axis=-1)

    def height(self) -> float:
        """Total offset span; used as a scale reference for divergence guards."""
        return float(self.bone_lengths().sum())

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "parents": self.parents.tolist(),
            "offsets": self.offsets.tolist(),
            "dof_active": self.dof_active.astype(int).tolist(),
            "constant_rotations": self.constant_rotations.tolist(),
            "euler_orders": list(self.euler_orders),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Skeleton":
        return cls(d["names"], np.array(d["parents"]), np.array(d["offsets"]),
                   np.array(d["dof_active"], dtype=bool),
                   np.array(d["constant_rotations"]), list(d["euler_orders"]))


@dataclass
class IkConfig:
    """Step limits of :func:`ik_reproject`, which reads ``max_steps`` and
    ``patience``. ``step_size`` and ``step_decay`` are accepted, so that
    existing configs keep working, and ignored: Levenberg-Marquardt sizes
    its steps by its own per-frame damping."""

    step_size: float = 1e-2
    patience: int = 2000
    max_steps: int = 5000
    step_decay: float = 0.999


def expand_active(skel: Skeleton, rotations: np.ndarray) -> np.ndarray:
    """All-joint rotations (..., J, 4) from active-joint ones (..., A, 4),
    each inactive joint at the skeleton's constant rotation."""
    j = skel.num_joints
    if rotations.shape[-2] == j and skel.num_active == j:
        return rotations
    if rotations.shape[-2] != skel.num_active:
        raise ValueError(
            f"expected rotations for {skel.num_active} active joints, got {rotations.shape[-2]}"
        )
    full = np.broadcast_to(skel.constant_rotations, rotations.shape[:-2] + (j, 4)).copy()
    full[..., skel.active_indices, :] = rotations
    return full


def _fk(skel: Skeleton, full: np.ndarray, root) -> tuple:
    """The tree loop shared by both FKs: world rotations ``(..., J, 4)`` and
    positions ``(..., J, 3)`` from all-joint local rotations, unchecked."""
    parents = skel.parents
    world_q = np.empty_like(full)
    world_q[..., 0, :] = full[..., 0, :]
    for j in range(1, skel.num_joints):
        world_q[..., j, :] = qmul(world_q[..., parents[j], :], full[..., j, :])
    bones = _rotate_vector_unchecked(world_q[..., parents[1:], :], skel.offsets[1:])
    positions = np.empty(full.shape[:-2] + (skel.num_joints, 3))
    positions[..., 0, :] = root
    for j in range(1, skel.num_joints):
        positions[..., j, :] = positions[..., parents[j], :] + bones[..., j - 1, :]
    return world_q, positions


def forward_kinematics(skel: Skeleton, rotations: np.ndarray,
                       root_position: np.ndarray | float = 0.0) -> np.ndarray:
    """World joint positions from active-joint rotations ``(..., A, 4)``.

    Broadcasts over leading axes (e.g. time). All rotations must be unit
    within 1e-6. Returns ``(..., J, 3)``.
    """
    rotations = np.asarray(rotations, dtype=float)
    norms = np.linalg.norm(rotations, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise InvalidRotationError("forward_kinematics requires unit rotations")
    return _fk(skel, expand_active(skel, rotations), root_position)[1]


def forward_kinematics_tensor(skel: Skeleton, rotations: Tensor,
                              root_position=0.0) -> Tensor:
    """Differentiable FK: one tape node over the numpy tree loop.

    Rotations need not be unit: each bone is rotated by the same formula
    ``v + 2w(u x v) + 2u x (u x v)`` as in :func:`forward_kinematics` (for
    non-unit q this differs from the sandwich product q (0,v) q*, which
    scales the bone by |q|^2), and the adjoint is exact for any quaternion.
    Every library caller normalizes first, so this only shows in gradient
    checks.
    """
    full = expand_active(skel, rotations.data)
    world_q, positions = _fk(skel, full, root_position)

    def grad(g):
        parents = skel.parents
        gp = g.copy()
        for j in range(skel.num_joints - 1, 0, -1):
            gp[..., parents[j], :] += gp[..., j, :]
        # adjoint of every bone rotation v + 2w(u x v) + 2u x (u x v), where
        # (w, u) is the parent's world rotation
        parent_q = world_q[..., parents[1:], :]
        w, u, v, gb = parent_q[..., :1], parent_q[..., 1:], skel.offsets[1:], gp[..., 1:, :]
        dot = lambda x, y: np.sum(x * y, axis=-1, keepdims=True)
        g_bone = 2.0 * np.concatenate(
            [dot(gb, _cross(u, v)),
             w * _cross(v, gb) + gb * dot(u, v) + v * dot(gb, u) - 2.0 * u * dot(gb, v)],
            axis=-1)
        # adjoint of world_q[j] = world_q[parent] (x) full[j], leaves first
        gq = np.zeros_like(world_q)
        for j in range(skel.num_joints - 1, 0, -1):
            gq[..., parents[j], :] += (g_bone[..., j - 1, :]
                                       + qmul(gq[..., j, :], qconj(full[..., j, :])))
        gq[..., 1:, :] = qmul(qconj(parent_q), gq[..., 1:, :])
        return gq[..., skel.active_indices, :]

    return ad._make(positions, (rotations,), (grad,))


def position_error(pred: np.ndarray, ref: np.ndarray) -> float:
    """Mean per-joint Euclidean distance over all frames and joints."""
    pred = np.asarray(pred, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    return float(np.mean(np.linalg.norm(pred - ref, axis=-1)))


def position_error_tensor(pred: Tensor, ref: np.ndarray) -> Tensor:
    diff = ad.add(pred, -np.asarray(ref, dtype=float))
    return ad.tmean(ad.l2norm(diff, axis=-1))


def velocity_error(pred: np.ndarray, ref: np.ndarray) -> float:
    """Position error of frame-to-frame finite differences (time on axis 0)."""
    pred = np.asarray(pred, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if pred.shape[0] < 2:
        raise ValueError("velocity_error needs at least 2 frames")
    return position_error(np.diff(pred, axis=0), np.diff(ref, axis=0))


def per_frame_velocity_error(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-difference-frame mean joint velocity error; used for histograms."""
    d = np.diff(np.asarray(pred, dtype=float), axis=0) - np.diff(np.asarray(ref, dtype=float), axis=0)
    return np.linalg.norm(d, axis=-1).mean(axis=-1)


def ik_reproject(skel: Skeleton, target: np.ndarray, init: np.ndarray,
                 cfg: IkConfig | None = None, root_position=None,
                 info: dict | None = None) -> np.ndarray:
    """Damped least-squares (Levenberg-Marquardt) inverse kinematics.

    Finds active-joint rotations minimizing the summed squared distance of
    FK positions to ``target`` ``(..., J, 3)``. Leading axes are independent
    frames, each with its own damping and accept/reject decision. A step
    rotates each joint in the world frame and renormalizes its quaternion,
    so the output always yields exact bone lengths. The root translation is
    taken from the target (or ``root_position``), never optimized.

    A frame is done once a step lowers its cost by at most ``_LM_TOL`` times
    that cost (for a rejected step, the decrease the linearized model
    predicted, which shrinks as the damping grows). The solve stops when all
    frames are done (``"tol"``), after ``cfg.patience`` iterations in a row
    in which no frame improved (``"patience"``), or at ``cfg.max_steps``.
    ``info``, if given, receives ``iterations``, the final summed ``cost``
    and ``stop``. A non-finite target or ``init``, a zero ``init``
    quaternion, or a joint count that does not match raises ValueError.
    """
    cfg = cfg or IkConfig()
    target = np.asarray(target, dtype=float)
    if not np.all(np.isfinite(target)):
        raise ValueError("IK target contains non-finite values")
    if target.shape[-2] != skel.num_joints:
        raise ValueError("IK target joint count does not match skeleton")
    if root_position is None:
        root_position = target[..., 0, :]
    lead, a, active = target.shape[:-2], skel.num_active, skel.active_indices
    target = target.reshape(-1, skel.num_joints, 3)
    root = np.broadcast_to(root_position, lead + (3,)).reshape(-1, 3)
    rots = np.asarray(init, dtype=float)
    if not np.all(np.isfinite(rots)):
        raise ValueError("IK init contains non-finite values")
    norms = np.linalg.norm(rots, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("IK init contains a zero-norm quaternion")
    rots = rots / norms
    rots = np.broadcast_to(rots, lead + (a, 4)).reshape(-1, a, 4).copy()
    below = np.eye(skel.num_joints, dtype=bool)  # below[i, k]: k is i or under i
    for k in range(1, skel.num_joints):
        below[:, k] |= below[:, skel.parents[k]]

    def evaluate(r):
        world_q, pos = _fk(skel, expand_active(skel, r), root)
        return world_q, pos, np.sum((target - pos) ** 2, axis=(-2, -1))

    world_q, pos, cost = evaluate(rots)
    lam, done = np.full(len(cost), 1e-3), np.zeros(len(cost), dtype=bool)
    steps, stall, stop = 0, 0, "max_steps"
    while steps < cfg.max_steps:
        steps += 1
        # a world rotation e_c at active joint i moves joint k by e_c x (p_k - p_i)
        lever = (pos[:, None] - pos[:, active, None]) * below[active, :, None]
        jac = _cross(np.eye(3)[:, None, None], lever[:, None])
        jac = jac.transpose(0, 3, 4, 2, 1).reshape(len(cost), -1, 3 * a)
        jtj = jac.swapaxes(1, 2) @ jac
        diag = np.diagonal(jtj, axis1=1, axis2=2) + _LM_EPS
        damp = np.eye(3 * a) * (lam[:, None] * diag)[:, None]
        grad = jac.swapaxes(1, 2) @ (target - pos).reshape(len(cost), -1, 1)
        delta = np.linalg.solve(jtj + damp, grad)
        predicted = np.sum(delta * (2.0 * grad - jtj @ delta), axis=(1, 2))
        local = _rotate_vector_unchecked(qconj(world_q[:, active]), delta.reshape(-1, a, 3))
        trial = qmul(rots, expmap_to_quat(local))
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        t_world_q, t_pos, t_cost = evaluate(trial)

        accept, gain = (t_cost <= cost) & ~done, cost - t_cost
        done |= np.where(accept, gain, predicted) <= _LM_TOL * cost
        for cur, new in ((rots, trial), (world_q, t_world_q), (pos, t_pos), (cost, t_cost)):
            cur[accept] = new[accept]
        lam = np.clip(lam * np.where(accept, 1.0 / 3.0, 10.0), 1e-12, 1e12)
        stall = 0 if np.any(accept & (gain > 0)) else stall + 1
        if done.all() or stall >= cfg.patience:
            stop = "tol" if done.all() else "patience"
            break
    if info is not None:
        info.update(iterations=steps, cost=float(cost.sum()), stop=stop)
    return rots.reshape(lead + (a, 4))
