"""Adam optimizer with global-norm gradient clipping.

Operates on dicts of named numpy parameter arrays, so that the pose and
pace networks share one code path. (Inverse kinematics does not
use it: ``kinematics.ik_reproject`` is Levenberg-Marquardt.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericalError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def global_norm(grads: dict) -> float:
    """The joint Euclidean norm of the gradients; ``inf`` beyond the
    largest float."""
    scale, norm = _scaled_norm(grads)
    return scale * norm


def _scaled_norm(grads: dict) -> tuple:
    """``(scale, norm)``, the global norm being ``scale * norm``: scale is 1,
    or, if the squares overflow although every gradient is finite, the
    largest magnitude, and norm is taken over the gradients over scale."""
    with np.errstate(over="ignore"):
        norm = _norm(grads)
    if np.isfinite(norm) or not all(np.isfinite(g).all() for g in grads.values()):
        return 1.0, norm
    scale = max(float(np.abs(g).max()) for g in grads.values() if g.size)
    return scale, _norm({k: g / scale for k, g in grads.items()})


def _norm(grads: dict) -> float:
    # sorted so the accumulation order, and hence the exact float result,
    # does not depend on dict insertion order (fresh vs resumed nets)
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] * grads[name]))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, max_norm: float) -> dict:
    """Scale all gradients so their joint Euclidean norm is <= max_norm."""
    return _clipped(grads, max_norm, *_scaled_norm(grads))


def _clipped(grads: dict, max_norm: float, scale: float, norm: float) -> dict:
    # by (max_norm / scale) / norm, finite where scale * norm overflows
    total = scale * norm
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / scale / norm
    return {k: g * factor for k, g in grads.items()}


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              clip_norm: float) -> float:
    """One in-place Adam update after global-norm clipping; returns the
    global gradient norm before clipping (the step clipped iff it exceeds
    ``clip_norm``; ``inf`` clips nothing). Finite gradients whose norm
    exceeds the largest float return ``inf`` and still take a clipped step.

    Raises :class:`NumericalError`, before any state changes, on non-finite
    gradients and on gradients whose squares overflow after clipping (v = inf
    would freeze those entries). Only a non-finite scaled norm makes it scan for the
    first, and only a rescaled norm (scale not 1) for the second.
    """
    scale, scaled = _scaled_norm(grads)
    if not np.isfinite(scaled):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
    grads = _clipped(grads, clip_norm, scale, scaled)
    if scale != 1.0:
        with np.errstate(over="ignore"):
            over = [name for name, g in sorted(grads.items()) if not np.isfinite(g * g).all()]
        if over:
            raise NumericalError(f"gradient squares overflow for parameters {over}")
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
    return scale * scaled
