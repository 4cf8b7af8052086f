"""Finite-difference gradient checks over the differentiable ops and both
network backbones. Used by the ``gradcheck`` CLI command and the tests."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kinematics import forward_kinematics_tensor
from .motiondata import synth_skeleton

EPS = 1e-5
TOL = 1e-5


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric),
                               np.full_like(numeric, 1e-8)])
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_gradient(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x, dtype=float)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        old = xf[i]
        xf[i] = old + eps
        hi = f(x)
        xf[i] = old - eps
        lo = f(x)
        xf[i] = old
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_scalar_fn(builder, x: np.ndarray, eps: float = EPS) -> float:
    """Compare backprop and finite differences for scalar-valued builder(x)."""
    t = Tensor(x.copy(), requires_grad=True)
    out = builder(t)
    out.backward()
    analytic = t.grad.copy()
    numeric = fd_gradient(lambda a: builder(Tensor(a)).item(), x.copy(), eps)
    return relative_error(analytic, numeric)


def _op_cases(rng: np.random.Generator) -> list:
    q = rng.normal(size=(3, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    v = rng.normal(size=(3, 3))
    skel = synth_skeleton(2)
    # unit poses; the finite differences step off the unit sphere, where
    # the FK adjoint must be exact too
    pose = rng.normal(size=(2, skel.num_active, 4))
    pose /= np.linalg.norm(pose, axis=-1, keepdims=True)
    w_pos = rng.normal(size=(2, skel.num_joints, 3))
    root = rng.normal(size=(2, 3))
    m = rng.normal(size=(4, 5))
    w52 = rng.normal(size=(5, 2))
    x5 = rng.normal(size=(5,))
    w34 = rng.normal(size=(3, 4))
    w64 = rng.normal(size=(6, 4))
    cases = [
        ("add_mul", lambda t: ad.tsum(t * t + 2.0 * t), rng.normal(size=(3, 4))),
        ("matmul", lambda t: ad.tsum(ad.matmul(t, Tensor(w52))), m.copy()),
        ("tanh_sigmoid", lambda t: ad.tsum(ad.tanh(t) * ad.sigmoid(t)), rng.normal(size=(6,))),
        ("asin", lambda t: ad.tsum(ad.asin(t)), rng.uniform(-0.9, 0.9, size=(5,))),
        ("atan2", lambda t: ad.tsum(ad.atan2(t, Tensor(x5))), rng.normal(size=(5,))),
        ("sqrt_l2norm", lambda t: ad.tsum(ad.l2norm(t, axis=-1)), v.copy() + 2.0),
        ("qnormalize", lambda t: ad.tsum(ad.qnormalize(t) * Tensor(w34)),
         q + 0.1 * rng.normal(size=(3, 4))),
        ("qmul", lambda t: ad.tsum(ad.qmul(t, Tensor(q))), q.copy()),
        ("forward_kinematics",
         lambda t: ad.tsum(forward_kinematics_tensor(skel, t, root) * Tensor(w_pos)), pose),
        ("getitem_scatter",
         lambda t: ad.tsum(ad.square(t[..., np.array([0, 2, 0]), :])),
         rng.normal(size=(2, 3, 4))),
        ("concat_stack", lambda t: ad.tsum(ad.concat([t, t], axis=0) * Tensor(w64)),
         rng.normal(size=(3, 4))),
        ("wrap_angle", lambda t: ad.tsum(ad.wrap_angle(t)),
         rng.uniform(-2.5, 2.5, size=(6,))),
    ]
    return cases


def _network_cases(rng: np.random.Generator) -> list:
    from .models import PoseNetwork, PoseNetworkConfig
    from .training import TrainConfig, scheduled_sampling_rollout

    skel = synth_skeleton(2)
    a = skel.num_active
    quats = rng.normal(size=(2, 40, a, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    cfg = TrainConfig(conditioning_frames=33, prediction_frames=2, epochs=1)

    def case(backbone):
        net = PoseNetwork(PoseNetworkConfig(a, backbone=backbone,
                                            hidden=12, channels=12), seed=0)
        names = sorted(net.param_arrays())
        pick = [names[0], names[len(names) // 2], names[-1]]

        def loss_for(params):
            n2 = PoseNetwork(net.config,
                             params={k: ad.parameter(v) for k, v in params.items()})
            loss = scheduled_sampling_rollout(
                n2, quats[:, :cfg.conditioning_frames + cfg.prediction_frames],
                skel, cfg, p=1.0, rng=np.random.default_rng(0))
            return loss

        base = {k: v.copy() for k, v in net.param_arrays().items()}
        loss = loss_for(base)
        loss.backward()
        net2 = PoseNetwork(net.config,
                           params={k: ad.parameter(v) for k, v in base.items()})
        # recompute to read grads off fresh leaves
        loss = scheduled_sampling_rollout(
            net2, quats[:, :cfg.conditioning_frames + cfg.prediction_frames],
            skel, cfg, p=1.0, rng=np.random.default_rng(0))
        loss.backward()
        worst = 0.0
        for name in pick:
            arr = base[name].reshape(-1)
            g = net2.params[name].grad.reshape(-1)
            idx = rng.integers(0, arr.size, size=min(4, arr.size))
            for i in idx:
                old = arr[i]
                arr[i] = old + EPS
                hi = loss_for(base).item()
                arr[i] = old - EPS
                lo = loss_for(base).item()
                arr[i] = old
                fd = (hi - lo) / (2 * EPS)
                # floor at FD noise: O(1) loss roundoff / eps ~ 1e-11, but
                # grads through a deep recurrence shrink to ~1e-8 where the
                # quotient is dominated by cancellation, not gradient error
                denom = max(abs(fd), abs(g[i]), 1e-5)
                worst = max(worst, abs(g[i] - fd) / denom)
        return worst

    return [("recurrent_rollout", case, "recurrent"),
            ("convolutional_rollout", case, "convolutional")]


def run_gradcheck(verbose: bool = False, tol: float = TOL) -> int:
    """Run the whole suite; returns the number of failures."""
    rng = np.random.default_rng(7)
    failures = 0
    for name, builder, x in _op_cases(rng):
        err = check_scalar_fn(builder, x)
        ok = err < tol
        failures += not ok
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name:24s} rel={err:.3e}")
    for name, case, backbone in _network_cases(rng):
        err = case(backbone)
        ok = err < tol
        failures += not ok
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name:24s} rel={err:.3e}")
    return failures
