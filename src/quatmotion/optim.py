"""Adam optimizer with global-norm gradient clipping.

Operates on dicts of named numpy parameter arrays, so that the pose, pace
and position networks share one code path. (Inverse kinematics does not
use it: ``kinematics.ik_reproject`` is Levenberg-Marquardt.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericalError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def global_norm(grads: dict) -> float:
    """The joint Euclidean norm of the gradients. If their squares overflow
    although every gradient is finite, it is taken over the gradients
    divided by their largest magnitude and scaled back."""
    norm = _norm(grads)
    if not np.isfinite(norm) and all(np.isfinite(g).all() for g in grads.values()):
        scale = max(float(np.abs(g).max()) for g in grads.values() if g.size)
        norm = scale * _norm({k: g / scale for k, g in grads.items()})
    return norm


def _norm(grads: dict) -> float:
    # sorted so the accumulation order, and hence the exact float result,
    # does not depend on dict insertion order (fresh vs resumed nets)
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] * grads[name]))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, max_norm: float) -> dict:
    """Scale all gradients so their joint Euclidean norm is <= max_norm."""
    return _clipped(grads, max_norm, global_norm(grads))


def _clipped(grads: dict, max_norm: float, norm: float) -> dict:
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              clip_norm: float) -> float:
    """One in-place Adam update after global-norm clipping; returns the
    global gradient norm before clipping (the step clipped iff it exceeds
    ``clip_norm``; ``inf`` clips nothing).

    Raises :class:`NumericalError` on non-finite gradients instead of
    corrupting the parameters. The norm is finite unless a gradient is not,
    so only then are the gradients scanned, to name the parameter.
    """
    norm = global_norm(grads)
    if not np.isfinite(norm):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
    grads = _clipped(grads, clip_norm, norm)
    state.step += 1
    bias1 = 1.0 - BETA1 ** state.step
    bias2 = 1.0 - BETA2 ** state.step
    for name, g in grads.items():
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        v = state.v[name]
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        params[name] -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
    return norm
