"""Rotation parameterizations: unit quaternions, Euler angles, exponential maps.

Conventions used throughout the package:

* Quaternions are scalar-first arrays ``(..., 4) = (w, x, y, z)``.
* ``qmul(a, b)`` is the Hamilton product; as rotations it applies ``b``
  first, then ``a``, so ``qmul(parent, local)`` maps local-frame vectors
  into the parent frame.
* Euler orders are the six Tait-Bryan orderings (``xyz``, ``xzy``, ``yxz``,
  ``yzx``, ``zxy``, ``zyx``), interpreted intrinsically: ``euler_to_quat``
  composes the axis rotations in the named order.

All functions are pure and broadcast over leading axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TAIT_BRYAN_ORDERS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

# Orders that are cyclic permutations of xyz have parity +1.
_CYCLIC = {"xyz", "yzx", "zxy"}

GIMBAL_COS_TOL = 1e-6
DEGENERATE_NORM_TOL = 1e-12
EXPMAP_SERIES_TOL = 1e-8


class DegenerateQuaternionError(ValueError):
    """Raised when a quaternion with (near-)zero norm cannot be normalized."""


class InvalidRotationError(ValueError):
    """Raised when an operation requires a unit quaternion but gets one that
    is off the unit sphere beyond tolerance."""


@dataclass(frozen=True)
class EulerAngles:
    """Euler angles ``(..., 3)`` in radians with a fixed Tait-Bryan order.

    ``singular`` flags entries extracted at (or numerically near) gimbal
    lock; such entries hold one representative solution.
    """

    angles: np.ndarray
    order: str
    singular: np.ndarray

    def __post_init__(self):
        if self.order not in TAIT_BRYAN_ORDERS:
            raise ValueError(f"unknown Euler order {self.order!r}")


# qmul(a, b)[k] = sum_j a[j] * b[_QMUL_IDX[j, k]] * _QMUL_SIGN[j, k], with
# the terms of each component in the order of the written-out product
_QMUL_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QMUL_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                       [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays, broadcasting over leading axes.

    ``einsum`` adds the four terms in order, bit for bit the written-out
    product; ``@`` would not, as BLAS reorders them for a single quaternion.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.einsum("...j,...jk->...k", a, b[..., _QMUL_IDX] * _QMUL_SIGN)


def qconj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def normalize(q: np.ndarray) -> np.ndarray:
    """Project raw 4-vectors onto the unit sphere.

    Raises :class:`DegenerateQuaternionError` if any norm is below 1e-12.
    """
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < DEGENERATE_NORM_TOL):
        raise DegenerateQuaternionError("quaternion norm below 1e-12")
    return q / n


def rotate_vector(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate 3-vectors ``v`` by unit quaternions ``q`` (computes q v q^-1)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(q, axis=-1)
    if np.any(np.abs(n - 1.0) > 1e-6):
        raise InvalidRotationError("rotate_vector requires unit quaternions (|norm - 1| <= 1e-6)")
    return _rotate_vector_unchecked(q, v)


def _rotate_vector_unchecked(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = q[..., :1]
    u = q[..., 1:]
    uv = _cross(u, v)
    return v + 2.0 * (w * uv + _cross(u, uv))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays, bit for bit, without its axis
    bookkeeping (which dominates on the small arrays FK works with)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def axis_angle_quat(axis, angle) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` radians about unit ``axis``."""
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    half = 0.5 * angle
    w = np.cos(half)
    xyz = axis * np.sin(half)[..., None]
    return np.concatenate([np.broadcast_to(w[..., None], xyz.shape[:-1] + (1,)), xyz], axis=-1)


def _single_axis_quat(axis_name: str, angle: np.ndarray) -> np.ndarray:
    angle = np.asarray(angle, dtype=float)
    half = 0.5 * angle
    q = np.zeros(angle.shape + (4,))
    q[..., 0] = np.cos(half)
    q[..., 1 + _AXIS_INDEX[axis_name]] = np.sin(half)
    return q


def euler_to_quat(angles: np.ndarray, order: str) -> np.ndarray:
    """Convert Euler angles ``(..., 3)`` in the given Tait-Bryan order."""
    if order not in TAIT_BRYAN_ORDERS:
        raise ValueError(f"unknown Euler order {order!r}")
    angles = np.asarray(angles, dtype=float)
    q = _single_axis_quat(order[0], angles[..., 0])
    q = qmul(q, _single_axis_quat(order[1], angles[..., 1]))
    q = qmul(q, _single_axis_quat(order[2], angles[..., 2]))
    return q


def _matrix_element(q: np.ndarray, a: int, b: int) -> np.ndarray:
    """Element (a, b) of the rotation matrices of unit quaternions ``q``."""
    w, v = q[..., 0], [q[..., 1], q[..., 2], q[..., 3]]
    if a == b:
        s, t = (c for c in range(3) if c != a)
        return 1 - 2 * (v[s] * v[s] + v[t] * v[t])
    vv, wv = v[min(a, b)] * v[max(a, b)], w * v[3 - a - b]
    return 2 * (vv - wv) if (b - a) % 3 == 1 else 2 * (vv + wv)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` from quaternions (internal use;
    matrices are not a public parameterization here)."""
    q = np.asarray(q, dtype=float)
    m = [_matrix_element(q, a, b) for a in range(3) for b in range(3)]
    return np.stack(m, axis=-1).reshape(q.shape[:-1] + (3, 3))


def _euler_reads(order: str) -> tuple:
    """The matrix elements ``(a, b)`` and signs the regular branch of an
    Euler order reads, in the order :func:`_euler_regular` returns them."""
    i, j, k = (_AXIS_INDEX[c] for c in order)
    eps = 1.0 if order in _CYCLIC else -1.0
    return ((i, k), eps), ((j, k), -eps), ((k, k), 1.0), ((i, j), -eps), ((i, i), 1.0)


def _euler_regular(q: np.ndarray, order: str) -> tuple:
    """Regular-branch Euler angles ``(a1, a2, a3)`` of unit quaternions, and
    the five signed matrix elements ``(s, y1, x1, y3, x3)`` they are read
    from: a1 = atan2(y1, x1), a2 = asin(s), a3 = atan2(y3, x3), with
    ``s`` clipped to [-1, 1]."""
    s, y1, x1, y3, x3 = (sign * _matrix_element(q, a, b) for (a, b), sign in _euler_reads(order))
    s = np.clip(s, -1.0, 1.0)
    return (np.arctan2(y1, x1), np.arcsin(s), np.arctan2(y3, x3)), (s, y1, x1, y3, x3)


def quat_to_euler(q: np.ndarray, order: str) -> EulerAngles:
    """Extract Euler angles in the given Tait-Bryan order.

    Near gimbal lock (|cos(middle angle)| < 1e-6) one representative
    solution is returned with the third angle fixed to zero, and the
    corresponding ``singular`` flag is set.
    """
    if order not in TAIT_BRYAN_ORDERS:
        raise ValueError(f"unknown Euler order {order!r}")
    q = normalize(q)
    (a1, a2, a3), (s2, *_) = _euler_regular(q, order)
    singular = np.sqrt(np.maximum(1.0 - s2 * s2, 0.0)) < GIMBAL_COS_TOL
    if singular.any():
        # Representative solution at the singularity: third angle set to 0.
        i, j = (_AXIS_INDEX[c] for c in order[:2])
        a1_sing = np.arctan2(np.sign(s2) * _matrix_element(q, j, i), _matrix_element(q, j, j))
        a1 = np.where(singular, a1_sing, a1)
        a3 = np.where(singular, 0.0, a3)
    return EulerAngles(np.stack([a1, a2, a3], axis=-1), order, singular)


@functools.lru_cache(maxsize=16)
def order_groups(orders: tuple, num_joints: int) -> tuple:
    """(order, joints) pairs of a per-joint Euler order tuple, sorted by
    order, with ``joints`` the array of joint columns using that order.
    Raises ValueError unless there is one order per joint."""
    if len(orders) != num_joints:
        raise ValueError(f"need one Euler order per joint: {len(orders)} orders "
                         f"for {num_joints} joints")
    groups = tuple((order, np.array([a for a, o in enumerate(orders) if o == order]))
                   for order in sorted(set(orders)))
    for _, joints in groups:
        joints.flags.writeable = False  # every caller gets the same array
    return groups


def joint_euler(q: np.ndarray, orders) -> np.ndarray:
    """Euler angles ``(..., J, 3)`` of joint rotations ``(..., J, 4)``,
    joint j in ``orders[j]``: one :func:`quat_to_euler` call per order,
    which works per quaternion, so the angles are those of per-joint calls."""
    q = np.asarray(q, dtype=float)
    angles = np.empty(q.shape[:-1] + (3,))
    for order, joints in order_groups(tuple(orders), q.shape[-2]):
        angles[..., joints, :] = quat_to_euler(q[..., joints, :], order).angles
    return angles


def expmap_to_quat(e: np.ndarray) -> np.ndarray:
    """Exponential-map vectors ``(..., 3)`` to unit quaternions.

    Angles below 1e-8 use the series expansion sin(t/2)/t ~ 1/2 to avoid
    the 0/0 at the origin.
    """
    e = np.asarray(e, dtype=float)
    theta = np.linalg.norm(e, axis=-1)
    half = 0.5 * theta
    small = theta < EXPMAP_SERIES_TOL
    safe = np.where(small, 1.0, theta)
    factor = np.where(small, 0.5, np.sin(half) / safe)
    w = np.cos(half)
    return np.concatenate([w[..., None], e * factor[..., None]], axis=-1)


def quat_to_expmap(q: np.ndarray) -> np.ndarray:
    """Unit quaternions to exponential maps with canonical angle in [0, pi]."""
    q = normalize(q)
    # Flip to the w >= 0 hemisphere so theta = 2 atan2(|v|, w) lands in [0, pi].
    q = np.where(q[..., :1] < 0.0, -q, q)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1)
    theta = 2.0 * np.arctan2(vn, q[..., 0])
    small = vn < EXPMAP_SERIES_TOL
    safe = np.where(small, 1.0, vn)
    # For small angles e = v * theta / sin(theta/2) ~ 2 v.
    factor = np.where(small, 2.0, theta / safe)
    return v * factor[..., None]


def fix_continuity(wxyz: np.ndarray) -> np.ndarray:
    """Resolve antipodal sign flips along the time axis, axis 0.

    For every joint and every ``t >= 1`` the output frame is negated iff its
    dot product with the (already fixed) previous frame is negative. Frame 0
    is returned unchanged. Idempotent; each output equals +/- its input.

    Fixing frame t - 1 only flips the sign of that dot, so frame t is negated
    iff the number of negative raw dots since the last zero or NaN dot is
    odd: a zero or NaN dot is never negative, whatever the previous sign, so
    it resets frame t to unflipped. That parity is one pass over the raw dots.
    """
    q = np.asarray(wxyz, dtype=float)
    dots = np.sum(q[1:] * q[:-1], axis=-1, keepdims=True)
    negative = dots < 0.0
    negatives = np.cumsum(negative, axis=0)
    reset = ~(negative | (dots > 0.0))
    negatives -= np.maximum.accumulate(np.where(reset, negatives, 0), axis=0)
    flip = np.zeros(q.shape[:-1] + (1,), dtype=bool)
    flip[1:] = negatives % 2 == 1
    return np.where(flip, -q, q)


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def slerp(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Spherical linear interpolation along the shorter arc.

    Falls back to normalized linear interpolation for nearly parallel
    inputs. ``t`` broadcasts against the leading axes of ``a``/``b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    dot = np.sum(a * b, axis=-1, keepdims=True)
    b = np.where(dot < 0.0, -b, b)
    dot = np.abs(dot)
    dot = np.clip(dot, -1.0, 1.0)
    omega = np.arccos(dot)
    sin_omega = np.sin(omega)
    near = sin_omega < 1e-9
    safe = np.where(near, 1.0, sin_omega)
    wa = np.where(near, 1.0 - t, np.sin((1.0 - t) * omega) / safe)
    wb = np.where(near, t, np.sin(t * omega) / safe)
    return normalize(wa * a + wb * b)


def quat_geodesic_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] between two unit quaternions."""
    dot = np.abs(np.sum(np.asarray(a) * np.asarray(b), axis=-1))
    return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))


def quat_mean(quats: np.ndarray) -> np.ndarray:
    """Normalized arithmetic mean over axis 0 after aligning signs to the
    last entry.

    This is the quaternion-space analogue of a running average over frames.
    """
    quats = np.asarray(quats, dtype=float)
    ref = quats[-1]
    dots = np.sum(quats * ref, axis=-1, keepdims=True)
    aligned = np.where(dots < 0.0, -quats, quats)
    return normalize(aligned.mean(axis=0))
