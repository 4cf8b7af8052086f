"""Finite-difference gradient checks over the differentiable ops (the fused
GRU cell and sequence, the quaternion head, causal convolution, row select
and step losses among them), both pose network backbones and both pace
network variants. Used by the ``gradcheck`` CLI command and the tests."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kinematics import forward_kinematics_tensor
from .locomotion import PaceNetwork, PaceNetworkConfig
from .models import PoseNetwork, PoseNetworkConfig
from .motiondata import synth_skeleton
from .training import TrainConfig, loss_quat_dot, penalty_unit_norm, scheduled_sampling_rollout

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
    w34 = rng.normal(size=(3, 4))
    w64 = rng.normal(size=(6, 4))
    keep = np.array([[True], [False], [True]])  # rows 0 and 2 kept, row 1 not
    cases = [
        ("add_mul", lambda t: ad.tsum(t * t + 2.0 * t), rng.normal(size=(3, 4))),
        ("matmul", lambda t: ad.tsum(ad.matmul(t, Tensor(w52))), m.copy()),
        ("tanh_sigmoid", lambda t: ad.tsum(ad.tanh(t) * ad.sigmoid(t)), rng.normal(size=(6,))),
        ("l2norm", lambda t: ad.tsum(ad.l2norm(t, axis=-1)), v.copy() + 2.0),
        # off the unit sphere, where the normalization adjoints matter
        ("quat_head_raw", lambda t: ad.tsum(ad.quat_head(t, Tensor(1.5 * q)) * Tensor(w34)),
         2.0 * q + 0.1 * rng.normal(size=(3, 4))),
        ("quat_head_prev", lambda t: ad.tsum(ad.quat_head(Tensor(2.0 * q), t) * Tensor(w34)),
         1.5 * q + 0.1 * rng.normal(size=(3, 4))),
        ("quat_head_absolute", lambda t: ad.tsum(ad.quat_head(t) * Tensor(w34)),
         2.0 * q + 0.1 * rng.normal(size=(3, 4))),
        ("quat_to_euler", lambda t: ad.tsum(ad.quat_to_euler(t, "zyx") * Tensor(v)),
         2.0 * q + 0.1 * rng.normal(size=(3, 4))),
        ("euler_to_quat_xzy", lambda t: ad.tsum(ad.euler_to_quat(t, "xzy") * Tensor(w34)),
         rng.uniform(-1.5, 1.5, size=(3, 3))),
        # the last row lies below EXPMAP_SERIES_TOL, in the series branch
        ("expmap_to_quat", lambda t: ad.tsum(ad.expmap_to_quat(t) * Tensor(w34)),
         np.concatenate([rng.normal(size=(2, 3)), [[3e-9, -2e-9, 1e-9]]])),
        ("forward_kinematics",
         lambda t: ad.tsum(forward_kinematics_tensor(skel, t, root) * Tensor(w_pos)), pose),
        ("getitem_scatter",
         lambda t: ad.tsum(ad.square(t[..., np.array([0, 2, 0]), :])),
         rng.normal(size=(2, 3, 4))),
        ("concat_stack", lambda t: ad.tsum(ad.concat([t, t], axis=0) * Tensor(w64)),
         rng.normal(size=(3, 4))),
        ("wrap_angle", lambda t: ad.tsum(ad.wrap_angle(t)),
         rng.uniform(-2.5, 2.5, size=(6,))),
        ("select", lambda t: ad.tsum(ad.select(keep, q, t) * Tensor(w34)),
         rng.normal(size=(3, 4))),
        ("loss_quat_dot", lambda t: loss_quat_dot(t, q), rng.normal(size=(3, 4))),
        ("penalty_unit_norm", lambda t: penalty_unit_norm(t, 0.05),
         1.5 * q + 0.1 * rng.normal(size=(3, 4))),
    ]
    # the fused GRU cell at batch 3, and a GRU sequence at batch 2 over 4
    # steps from one h0 broadcast over the batch, varying each of their
    # five inputs in turn
    def input_case(op, arrays, weights, i):
        def f(t):
            args = [t if j == i else Tensor(arr) for j, arr in enumerate(arrays)]
            return ad.tsum(op(*args) * Tensor(weights))
        return f

    cell = [rng.normal(size=shape) for shape in ((3, 4), (3, 5), (4, 15), (5, 15), (15,))]
    seq = [rng.normal(size=shape) for shape in ((2, 4, 4), (5,), (4, 15), (5, 15), (15,))]
    for op, arrays, weights in ((ad.gru_cell, cell, rng.normal(size=(3, 5))),
                                (ad.gru_sequence, seq, rng.normal(size=(2, 4, 5)))):
        cases += [(f"{op.__name__}_{name}", input_case(op, arrays, weights, i), arrays[i].copy())
                  for i, name in enumerate(("x", "h", "wx", "wh", "b"))]
    # a causal convolution at dilation 2 over 5 frames (the lagged tap
    # reads x too) and over 1 frame (a step), with and without the leaky
    # ReLU, varying each of its inputs in turn
    for t in (5, 1):
        conv = [rng.normal(size=shape) for shape in
                ((2, t, 3), (2, 2, 3), (3, 4), (3, 4), (4,), (2, t, 4))]
        weights = rng.normal(size=(2, t, 4))
        for slope in (0.05, None):
            def conv_op(x, past, w0, w1, b, skip, slope=slope):
                return ad.causal_conv(x, past, w0, w1, b, slope, skip)
            cases += [(f"causal_conv_t{t}_{'leaky' if slope else 'linear'}_{name}",
                       input_case(conv_op, conv, weights, i), conv[i].copy())
                      for i, name in enumerate(("x", "past", "w0", "w1", "b", "skip"))]
    return cases


def _param_error(params: dict, loss_for, names, rng) -> float:
    """Worst relative error of backprop against central differences at up
    to 4 random entries of each named parameter. ``loss_for`` maps a dict
    of parameter tensors to a scalar loss tensor."""
    leaves = {k: ad.parameter(v) for k, v in params.items()}
    loss_for(leaves).backward()
    worst = 0.0
    for name in names:
        arr = params[name].reshape(-1)
        g = leaves[name].grad.reshape(-1)
        for i in rng.integers(0, arr.size, size=min(4, arr.size)):
            old = arr[i]
            arr[i] = old + EPS
            hi = loss_for({k: ad.parameter(v) for k, v in params.items()}).item()
            arr[i] = old - EPS
            lo = loss_for({k: ad.parameter(v) for k, v in params.items()}).item()
            arr[i] = old
            fd = (hi - lo) / (2 * EPS)
            # floor at FD noise: O(1) loss roundoff / eps ~ 1e-11, but
            # grads through a deep recurrence shrink to ~1e-8 where the
            # quotient is dominated by cancellation, not gradient error
            denom = max(abs(fd), abs(g[i]), 1e-5)
            worst = max(worst, abs(g[i] - fd) / denom)
    return worst


def _network_cases(rng: np.random.Generator) -> list:
    skel = synth_skeleton(2)
    a = skel.num_active
    quats = rng.normal(size=(2, 40, a, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)

    def pose_case(spec):
        backbone, sides = spec
        net = PoseNetwork(PoseNetworkConfig(a, backbone=backbone, hidden=12, channels=12,
                                            include_controls=sides,
                                            include_translations=sides), seed=0)
        params, names = net.param_arrays(), sorted(net.params)
        # conv rollouts read fed-back predictions detached, which finite
        # differences cannot follow, so p = 1 feeds them ground truth only
        p, n, k, root = 1.0, 33, 2, None
        if sides:
            # jittered off the leaky-ReLU kink that zero encoder biases and
            # zero controls put every encoder unit on at init
            params = {name: v + 0.1 * rng.normal(size=v.shape) for name, v in params.items()}
            p, n, k, root = 0.5, 6, 4, rng.normal(size=(2, 10, 3))
        cfg = TrainConfig(conditioning_frames=n, prediction_frames=k, epochs=1)

        def loss_for(params):
            return scheduled_sampling_rollout(
                PoseNetwork(net.config, params=params), quats[:, :n + k], skel, cfg,
                p=p, rng=np.random.default_rng(0), root_positions=root)

        return _param_error(params, loss_for,
                            [names[0], names[len(names) // 2], names[-1]], rng)

    curv = rng.normal(scale=0.5, size=7)
    weights = rng.normal(size=(7, 4))

    def pace_case(variant):
        net = PaceNetwork(PaceNetworkConfig(hidden=6, variant=variant, delay=2), seed=0)

        def loss_for(params):
            out = PaceNetwork(net.config, params=params).forward(curv)
            return (ad.tsum(out["facing"] * Tensor(weights[:, :2]))
                    + ad.tsum(out["frequency"] * Tensor(weights[:, 2]))
                    + ad.tsum(out["speed"] * Tensor(weights[:, 3])))

        return _param_error(net.param_arrays(), loss_for, sorted(net.params), rng)

    return [("recurrent_rollout", pose_case, ("recurrent", False)),
            ("convolutional_rollout", pose_case, ("convolutional", False)),
            ("pace_bidirectional", pace_case, "bidirectional"),
            ("pace_online", pace_case, "online"),
            ("recurrent_rollout_sides", pose_case, ("recurrent", True))]


def run_gradcheck(verbose: bool = False) -> int:
    """Run the whole suite; returns the number of errors of ``TOL`` or more."""
    rng = np.random.default_rng(7)
    failures = 0
    for name, builder, x in _op_cases(rng):
        err = check_scalar_fn(builder, x)
        ok = err < TOL
        failures += not ok
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name:24s} rel={err:.3e}")
    for name, case, arg in _network_cases(rng):
        err = case(arg)
        ok = err < TOL
        failures += not ok
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name:24s} rel={err:.3e}")
    return failures
