"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

The "tape" is the implicit operation graph: every op returns a
:class:`Tensor` holding its numpy value, its parents, and a backward rule.
``backward()`` on a scalar output traverses the graph once in reverse
topological order and accumulates gradients into the ``requires_grad``
leaves. A graph can be backpropagated through only once. Inside
``with no_grad():`` (free-run prediction and generation) nothing is
recorded and every op returns its plain numpy value, the bytes of the
node it would record, so the networks run one forward in both modes. The
ops hot off the tape (:func:`gru_cell`, :func:`gru_sequence`,
:func:`quat_head`, :func:`causal_conv`, :func:`linear`, :func:`add`,
:func:`reshape`, :func:`concat`, :func:`leaky_relu`) return their array
kernel's value first thing.

Larger operations are single nodes with hand-written adjoints over numpy
and the :mod:`rotmath` kernels: the quaternion head (:func:`quat_head`,
a normalized product with the previous pose); the conversions the Euler
and exponential-map encodings train through (:func:`quat_to_euler`,
:func:`euler_to_quat`, :func:`expmap_to_quat`); forward kinematics
(``kinematics.forward_kinematics_tensor``); a GRU cell (:func:`gru_cell`,
for frames fed back one at a time) and a GRU layer over a whole sequence
(:func:`gru_sequence`), which share one gate forward and one gate adjoint;
a causal convolution layer (:func:`causal_conv`); and a row select
(:func:`select`). The step losses ``training.loss_quat_dot`` and
``training.penalty_unit_norm`` are single nodes too.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import rotmath as rm

EPS_NORM = 1e-12

_recording = True  # False inside no_grad()


class NumericalError(ArithmeticError):
    """Raised when non-finite values are detected at tape boundaries."""


class TapeConsumedError(RuntimeError):
    """Raised when backward() is invoked twice through the same graph."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus its position in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns", "_consumed")

    __array_ufunc__ = None  # ndarray <op> Tensor: numpy defers to the operators below

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._grad_fns = ()
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal ---------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        if self._consumed:
            raise TapeConsumedError("this graph has already been backpropagated")
        if not np.all(np.isfinite(self.data)):
            raise NumericalError("non-finite value at tape output")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            node._consumed = True
            if node.requires_grad and not node._parents:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad = node.grad + g
            for parent, fn in zip(node._parents, node._grad_fns):
                contrib = fn(g)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib


    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_FLOAT, _NDARRAY = np.dtype(float), np.ndarray


def _array(x) -> np.ndarray:
    """The array ``as_tensor(x).data``, without building a Tensor."""
    if type(x) is _NDARRAY and x.dtype is _FLOAT:
        return x
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)


@contextlib.contextmanager
def no_grad():
    """Record no tape while active: every op returns its plain numpy value.
    The previous state comes back on exit, also on an exception."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _make(data, parents, grad_fns) -> Tensor:
    """Build an op output, off the tape ``data`` itself; graph edges are kept
    only toward grad-requiring or non-leaf parents (constants are pruned)."""
    if not _recording:
        return data
    out = Tensor(data)
    kept = [(p, f) for p, f in zip(parents, grad_fns) if p.requires_grad or p._parents]
    if kept:
        out._parents = tuple(p for p, _ in kept)
        out._grad_fns = tuple(f for _, f in kept)
        out.requires_grad = True
    return out


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    if not _recording:
        return _array(a) + _array(b)
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    return _make(
        data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    return _make(
        data,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data
    return _make(
        data,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def linear(x, w, b) -> Tensor:
    """``x @ w + b``: a matmul node and an add node."""
    if not _recording:
        return _array(x) @ _array(w) + _array(b)
    return add(matmul(x, w), b)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def ga(g):
        if b.data.ndim == 1:
            return _unbroadcast(np.multiply.outer(g, b.data), a.data.shape)
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)

    def gb(g):
        if a.data.ndim == 1:
            return _unbroadcast(np.multiply.outer(a.data, g), b.data.shape)
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)

    return _make(data, (a, b), (ga, gb))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), (lambda g: 2.0 * a.data * g,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    return _make(data, (a,), (lambda g: g * (1.0 - data * data),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _make(data, (a,), (lambda g: g * data * (1.0 - data),))


def _leaky(y, slope):
    """The leaky ReLU on arrays, for 0 < slope < 1: the bytes of
    ``np.where(y > 0, y, slope * y)`` in one pass fewer."""
    return np.maximum(y, slope * y)


def leaky_relu(a, slope: float = 0.05) -> Tensor:
    if not _recording:
        return _leaky(_array(a), slope)
    a = as_tensor(a)
    return _make(_leaky(a.data, slope), (a,),
                 (lambda g: g * np.where(a.data > 0.0, 1.0, slope),))


def absval(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a,), (lambda g: g * sign,))


def select(keep, const, x) -> Tensor:
    """``np.where(keep, const, x)`` as one node, for a constant boolean
    ``keep`` and a constant array ``const`` that broadcast against ``x``."""
    x = as_tensor(x)
    return _make(np.where(keep, const, x.data), (x,),
                 (lambda g: _unbroadcast(np.where(keep, 0.0, g), x.data.shape),))


def wrap_angle(a) -> Tensor:
    """Wrap to (-pi, pi]; the 2*pi*k shift is locally constant so the
    gradient passes through unchanged."""
    a = as_tensor(a)
    data = np.pi - np.mod(np.pi - a.data, 2.0 * np.pi)
    return _make(data, (a,), (lambda g: g,))


# -- reductions and shaping ---------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _make(data, (a,), (grad,))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    if not _recording:
        return _array(a).reshape(shape)
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.data.shape),))


def concat(tensors, axis: int = -1) -> Tensor:
    if not _recording:
        return np.concatenate([_array(t) for t in tensors], axis=axis)
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def make_grad(start, stop):
        def grad(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            return g[tuple(sl)]

        return grad

    grad_fns, stop = [], 0
    for t in tensors:
        start, stop = stop, stop + t.data.shape[axis]
        grad_fns.append(make_grad(start, stop))
    return _make(data, tuple(tensors), tuple(grad_fns))


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def make_grad(i):
        return lambda g: np.take(g, i, axis=axis)

    return _make(data, tuple(tensors), tuple(make_grad(i) for i in range(len(tensors))))


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    data = a.data[idx]

    # only array indices can repeat an entry, so only they need np.add.at
    parts = idx if isinstance(idx, tuple) else (idx,)
    fancy = any(isinstance(p, (np.ndarray, list)) for p in parts)

    def grad(g):
        out = np.zeros_like(a.data)
        if fancy:
            np.add.at(out, idx, g)
        else:
            out[idx] = g
        return out

    return _make(data, (a,), (grad,))


def l2norm(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Euclidean norm along ``axis`` with an epsilon guard in the derivative."""
    a = as_tensor(a)
    n = np.linalg.norm(a.data, axis=axis, keepdims=True)
    safe = np.maximum(n, EPS_NORM)
    data = n if keepdims else np.squeeze(n, axis=axis)

    def grad(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return g * a.data / safe

    return _make(data, (a,), (grad,))


# -- quaternion primitives ----------------------------------------------------


def _normalized(q):
    """Rows of ``q`` (..., 4) over their norms, and the norms (at least
    ``EPS_NORM``)."""
    n = np.maximum(rm._norm(q), EPS_NORM)
    return q / n, n


def _unnormalize(g, unit, n):
    """Adjoint of q through ``unit = q / n``: g without its component along
    the unit output, over the norm."""
    return (g - unit * np.sum(g * unit, axis=-1, keepdims=True)) / n


def quat_head(raw, prev=None) -> Tensor:
    """The quaternion head as one node: ``qnormalize(qmul(qnormalize(raw),
    prev))`` on ``(..., 4)`` arrays, or ``qnormalize(raw)`` without ``prev``
    (absolute mode). The product's adjoints are g_a = g x b* and
    g_b = a* x g."""
    unit, n1 = _normalized(_array(raw))
    if prev is None:
        return _make(unit, (as_tensor(raw),), (lambda g: _unnormalize(g, unit, n1),))
    data, n2 = _normalized(rm.qmul(unit, _array(prev)))
    if not _recording:
        return data
    raw, prev = as_tensor(raw), as_tensor(prev)
    memo = [None, None]

    def gprod(g):
        # the adjoint of the unnormalized product, once per backward
        if memo[0] is not g:
            memo[:] = [g, _unnormalize(g, data, n2)]
        return memo[1]

    return _make(data, (raw, prev), (
        lambda g: _unnormalize(_unbroadcast(rm.qmul(gprod(g), rm.qconj(prev.data)), unit.shape),
                               unit, n1),
        lambda g: _unbroadcast(rm.qmul(rm.qconj(unit), gprod(g)), prev.data.shape),
    ))


# q @ _LEFT[a] = e_a q and q @ _RIGHT[a] = q e_a for the pure unit
# quaternions e_x, e_y, e_z
_LEFT = np.stack([rm.qmul(e, np.eye(4)) for e in np.eye(4)[1:]])
_RIGHT = np.stack([rm.qmul(np.eye(4), e) for e in np.eye(4)[1:]])


def quat_to_euler(q, order: str) -> Tensor:
    """Euler angles (..., 3) of quaternions (..., 4), normalized first, as
    one node over :func:`rotmath.quat_to_euler`'s regular branch (gimbal
    lock has measure zero). Each angle is an asin or atan2 of matrix
    elements; at a unit u, element (a, b) has gradient -2 e_a u e_b up to
    the radial part that the normalization removes."""
    q = as_tensor(q)
    u, n = _normalized(q.data)
    angles, (s, y1, x1, y3, x3) = rm._euler_regular(u, order)

    def grad(g):
        g1 = g[..., 0] / np.maximum(y1 * y1 + x1 * x1, EPS_NORM)
        g3 = g[..., 2] / np.maximum(y3 * y3 + x3 * x3, EPS_NORM)
        g2 = g[..., 1] / np.sqrt(np.maximum(1.0 - s * s, EPS_NORM))
        gms = (g2, g1 * x1, -g1 * y1, g3 * x3, -g3 * y3)
        gu = -2.0 * sum(sign * gm[..., None] * (u @ (_LEFT[a] @ _RIGHT[b]))
                        for gm, ((a, b), sign) in zip(gms, rm._euler_reads(order)))
        return _unnormalize(gu, u, n)

    return _make(np.stack(angles, axis=-1), (q,), (grad,))


def euler_to_quat(angles, order: str) -> Tensor:
    """Quaternions (..., 4) from Euler angles (..., 3) in a Tait-Bryan order,
    as one node over :func:`rotmath.euler_to_quat`. With q = q1 q2 q3 and
    u_i the unit axis of angle i, dq/da is (u1 q, (q1 u2 q1*) q, q u3) / 2.
    """
    angles = as_tensor(angles)
    data = rm.euler_to_quat(angles.data, order)

    def grad(g):
        i1, i2, i3 = (rm._AXIS_INDEX[c] for c in order)
        q1 = rm._single_axis_quat(order[0], angles.data[..., 0])
        u2 = rm.qmul(q1 @ _RIGHT[i2], rm.qconj(q1))
        dq = (data @ _LEFT[i1], rm.qmul(u2, data), data @ _RIGHT[i3])
        return 0.5 * np.stack([np.sum(g * d, axis=-1) for d in dq], axis=-1)

    return _make(data, (angles,), (grad,))


def expmap_to_quat(e) -> Tensor:
    """Quaternions (..., 4) from exponential maps (..., 3), as one node over
    :func:`rotmath.expmap_to_quat`. With q = (cos(t/2), f(t) e), t = |e|,
    the adjoint of e is f (g_v - g_w e/2) + (f'/t) (g_v . e) e; below
    ``rotmath.EXPMAP_SERIES_TOL`` it takes the limits at the origin, f = 1/2
    and f'/t = -1/24, so it stays finite there."""
    e = as_tensor(e)

    def grad(g):
        theta = np.linalg.norm(e.data, axis=-1, keepdims=True)
        small = theta < rm.EXPMAP_SERIES_TOL
        t = np.where(small, 1.0, theta)
        sin_half, cos_half = np.sin(0.5 * t), np.cos(0.5 * t)
        f = np.where(small, 0.5, sin_half / t)
        df = np.where(small, -1.0 / 24.0, (0.5 * t * cos_half - sin_half) / (t * t * t))
        gv = g[..., 1:]
        gve = np.sum(gv * e.data, axis=-1, keepdims=True)
        return f * (gv - 0.5 * g[..., :1] * e.data) + df * gve * e.data

    return _make(rm.expmap_to_quat(e.data), (e,), (grad,))


# -- recurrent cell -------------------------------------------------------------


def _gru_forward(gx, h, wh):
    """One GRU step from its input gates ``gx`` = x wx + b (B, 3H) and its
    state ``h`` (B, H): returns h' and the (rz, n, gh_n) its adjoint reads."""
    hidden = h.shape[-1]
    gh = h @ wh
    rz = 1.0 / (1.0 + np.exp(-(gx[:, :2 * hidden] + gh[:, :2 * hidden])))
    r, z = rz[:, :hidden], rz[:, hidden:]
    gh_n = gh[:, 2 * hidden:]
    n = np.tanh(gx[:, 2 * hidden:] + r * gh_n)
    return (1.0 - z) * n + z * h, (rz, n, gh_n)


def _gru_adjoint(h, saved):
    """Factors of GRU steps' adjoints, over any leading shape. With g the
    adjoint of h' and g3 = (g, g, g) over the gate blocks, the gate
    pre-activations get dgx = g3 kx and dgh = g3 kh, and the input state
    h gets dgh wh^T + g z. Returns (kx, kh, z)."""
    rz, n, gh_n = saved
    hidden = n.shape[-1]
    r, z = rz[..., :hidden], rz[..., hidden:]
    dn = (1.0 - z) * (1.0 - n * n)
    drz = np.concatenate([dn * gh_n, h - n], axis=-1) * rz * (1.0 - rz)
    return np.concatenate([drz, dn], axis=-1), np.concatenate([drz, dn * r], axis=-1), z


def _gru_states(xs, h0, wx, wh, b, saved=None):
    """A GRU layer's states over a (B, T, I) sequence on arrays, (B, T + 1, H)
    with [:, t] step t's input state. Given ``saved``, buffers (B, T, kH)
    for (rz, n, gh_n), it keeps every step's activations there."""
    bsz, steps, inputs = xs.shape
    gx = (xs.reshape(-1, inputs) @ wx + b).reshape(bsz, steps, -1)
    hs = np.empty((bsz, steps + 1, wh.shape[0]))
    hs[:, 0] = h0
    for t in range(steps):
        hs[:, t + 1], acts = _gru_forward(gx[:, t], hs[:, t], wh)
        if saved is not None:
            for buf, act in zip(saved, acts):
                buf[:, t] = act
    return hs


def gru_cell(x, h, wx, wh, b) -> Tensor:
    """One GRU cell as a single tape node: ``x`` (B, I), ``h`` (B, H),
    ``wx`` (I, 3H), ``wh`` (H, 3H), ``b`` (3H,), gate blocks ordered r, z, n.

    ``n = tanh(gx_n + r * gh_n)`` (the reset gate rescales only the
    recurrent contribution) and ``h' = (1 - z) n + z h``, with the same
    arithmetic and order as the composite ops, so outputs are bit-identical
    to them. The backward computes the gate adjoints once and derives all
    five input gradients from them.
    """
    if not _recording:
        return _gru_forward(_array(x) @ _array(wx) + _array(b), _array(h), _array(wh))[0]
    x, h, wx, wh, b = (as_tensor(t) for t in (x, h, wx, wh, b))
    data, saved = _gru_forward(x.data @ wx.data + b.data, h.data, wh.data)
    memo = [None, None]

    def gates(g):
        # (dgx, dgh, dh through z) for output adjoint g, once per backward
        if memo[0] is not g:
            kx, kh, z = _gru_adjoint(h.data, saved)
            g3 = np.concatenate([g, g, g], axis=-1)
            memo[:] = [g, (g3 * kx, g3 * kh, g * z)]
        return memo[1]

    return _make(data, (x, h, wx, wh, b), (
        lambda g: gates(g)[0] @ wx.data.T,
        lambda g: gates(g)[1] @ wh.data.T + gates(g)[2],
        lambda g: x.data.T @ gates(g)[0],
        lambda g: h.data.T @ gates(g)[1],
        lambda g: gates(g)[0].sum(axis=0),
    ))


def gru_sequence(xs, h0, wx, wh, b) -> Tensor:
    """One GRU layer over a batch-first sequence as a single tape node:
    ``xs`` (B, T, I), ``h0`` broadcastable to (B, H), weights as in
    :func:`gru_cell`. Returns the states after every step, (B, T, H).

    The input projection of all T steps is one matmul, then each step runs
    :func:`gru_cell`'s arithmetic. The backward is one loop back through
    time over the state's adjoint, then one matmul each for the gradients
    of ``xs``, ``wx`` and ``wh``.
    """
    if not _recording:
        return _gru_states(_array(xs), _array(h0), _array(wx), _array(wh), _array(b))[:, 1:]
    xs, h0, wx, wh, b = (as_tensor(t) for t in (xs, h0, wx, wh, b))
    bsz, steps, inputs = xs.data.shape
    hidden = wh.data.shape[0]
    rz, n, gh_n = (np.empty((bsz, steps, k * hidden)) for k in (2, 1, 1))
    hs = _gru_states(xs.data, h0.data, wx.data, wh.data, b.data, (rz, n, gh_n))
    memo = [None, None]

    def bptt(g):
        # (dgx, dgh) of all steps, flattened, and h0's adjoint, once per backward
        if memo[0] is not g:
            kx, kh, z = _gru_adjoint(hs[:, :-1], (rz, n, gh_n))
            kh3, wht = kh.reshape(bsz, steps, 3, hidden), wh.data.T
            gs, carry = np.empty_like(n), np.zeros((bsz, hidden))
            for t in range(steps - 1, -1, -1):
                gt = gs[:, t] = g[:, t] + carry
                carry = (kh3[:, t] * gt[:, None]).reshape(bsz, -1) @ wht + gt * z[:, t]
            g3 = np.concatenate([gs, gs, gs], axis=-1).reshape(-1, 3 * hidden)
            memo[:] = [g, (g3 * kx.reshape(g3.shape), g3 * kh.reshape(g3.shape), carry)]
        return memo[1]

    return _make(hs[:, 1:], (xs, h0, wx, wh, b), (
        lambda g: (bptt(g)[0] @ wx.data.T).reshape(xs.data.shape),
        lambda g: _unbroadcast(bptt(g)[2], h0.data.shape),
        lambda g: xs.data.reshape(-1, inputs).T @ bptt(g)[0],
        lambda g: hs[:, :-1].reshape(-1, hidden).T @ bptt(g)[1],
        lambda g: bptt(g)[0].sum(axis=0),
    ))


# -- convolution -----------------------------------------------------------------


def _conv_forward(x, past, w0, w1, b, slope=None, skip=None, at=0):
    """:func:`causal_conv`'s value on arrays, then the lagged frames and the
    pre-activation that its adjoint reads."""
    t, d = x.shape[1], past.shape[1] - at
    lag = past[:, at:at + t] if t <= d else np.concatenate([past[:, at:], x[:, :t - d]], axis=1)
    data = pre = lag @ w0
    pre += x @ w1  # in place, with the bytes of lag @ w0 + x @ w1 + b
    pre += b
    if slope is not None:
        data = _leaky(pre, slope)
    if skip is not None:
        data = data + skip
    return data, lag, pre


def causal_conv(x, past, w0, w1, b, slope=None, skip=None, at=0) -> Tensor:
    """One width-2 causal convolution layer as one tape node over the new
    frames ``x`` (B, t, I): ``y = lag @ w0 + x @ w1 + b`` with the lagged
    taps ``lag = [past[:, at:], x][:, :t]`` (a step reads one frame of a
    chunk, a window the d frames of ``past`` and then its own), then a
    leaky ReLU if ``slope`` is given, then ``+ skip``, in the composite
    ops' order. ``x @ w1`` and ``b`` are added to ``lag @ w0`` in place, so
    they must broadcast into its shape. The lag adjoint of ``past`` is
    written at ``at``; the two taps' adjoints of ``x`` are separate
    contributions, the current tap's first, so gradients sum as the
    composite's tape sums them."""
    if not _recording:
        return _conv_forward(_array(x), _array(past), _array(w0), _array(w1), _array(b), slope,
                             None if skip is None else _array(skip), at)[0]
    x, past, w0, w1, b = (as_tensor(t) for t in (x, past, w0, w1, b))
    t, d = x.data.shape[1], past.data.shape[1] - at
    skip = None if skip is None else as_tensor(skip)
    data, lag, pre = _conv_forward(x.data, past.data, w0.data, w1.data, b.data, slope,
                                   None if skip is None else skip.data, at)
    memo = [None, None]

    def gpre(g):
        # adjoints of the pre-activation and of the lagged frames, once per backward
        if memo[0] is not g:
            gp = g if slope is None else g * np.where(pre > 0.0, 1.0, slope)
            memo[:] = [g, (gp, gp @ w0.data.T)]
        return memo[1]

    def lag_adjoint(g, part, start, offset):
        # the lagged tap's adjoint of ``part``, whose frame ``start`` is lag frame ``offset``
        out = np.zeros_like(part.data)
        taps = gpre(g)[1][:, offset:offset + out.shape[1] - start]
        out[:, start:start + taps.shape[1]] = taps
        return out

    parents = [past, w0, x, w1, b]
    grad_fns = [
        lambda g: lag_adjoint(g, past, at, 0),
        lambda g: _unbroadcast(np.swapaxes(lag, -1, -2) @ gpre(g)[0], w0.data.shape),
        lambda g: gpre(g)[0] @ w1.data.T,
        lambda g: _unbroadcast(np.swapaxes(x.data, -1, -2) @ gpre(g)[0], w1.data.shape),
        lambda g: _unbroadcast(gpre(g)[0], b.data.shape),
    ]
    if t > d:  # the lagged tap reads x's first t - d frames too
        parents.append(x)
        grad_fns.append(lambda g: lag_adjoint(g, x, 0, d))
    if skip is not None:
        parents.append(skip)
        grad_fns.append(lambda g: _unbroadcast(g, skip.data.shape))
    return _make(data, tuple(parents), tuple(grad_fns))


def parameter(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Create a trainable leaf tensor; with ``rng`` draws uniform(-scale, scale)."""
    if rng is not None:
        data = rng.uniform(-scale, scale, size=data)
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)
