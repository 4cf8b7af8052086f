"""Autoregressive pose networks and checkpoint I/O.

Two backbones predict the next pose from the previous one: a 2-layer GRU
with learned initial states, and a stack of 5 causal dilated convolutions
(width 2, dilations 1,2,4,8,16, receptive field 32 frames). For both,
``PoseNetwork.forward_window`` conditions on a window of frames and
predicts the next one with a single head output, and ``PoseNetwork.step``
advances its state by one frame. The convolutional state holds each
layer's inputs over its last ``dilation`` frames, so a step computes one
new frame per layer instead of rerunning the window (as in Fast WaveNet,
Paine et al. 2016). In velocity mode the quaternion head multiplies onto
the previous pose, so the network outputs deltas. Exponential-map and
Euler heads decode through the rotmath conversions.

Each network has one forward, written against the ``autodiff`` ops (a
GRU window is one ``gru_sequence`` node per layer, a step one ``gru_cell``
node per layer, a convolutional layer one ``causal_conv`` node, the head
one ``quat_head`` node): it returns Tensors on the tape, and inside
``autodiff.no_grad()`` (free-run prediction and generation) plain arrays,
the recorded nodes' values byte for byte. So the convolutional state has
one format in both modes: per layer, its input chunks, oldest first, and
the offset in the first of the oldest of its last d frames. A step reads
its lag tap there and appends its input, concatenating nothing and
writing to no state, so one state can be stepped from twice.

Optional side inputs, recurrent backbone only: 2 translation channels
(root height, trajectory offset) and a 6-feature control frame passed
through a small feed-forward encoder outside the recurrent path.

Each network declares its parameters once, as ``(name, shape, scale)``
entries: ``ParamContainer`` draws a new network's values from them and
checks a checkpoint's arrays against them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rotmath as rm
from .autodiff import Tensor
from .motiondata import _read_exact, _read_header, _write_container

CHECKPOINT_MAGIC = b"QMN1"
CHECKPOINT_VERSION = 1
CONTROL_DIM = 6
CONV_LAYERS = 5  # dilations 1, 2, 4, 8, 16: a 32-frame receptive field
CONV_TAPS = 2  # every causal convolution reads frames t - d and t
GRU_LAYERS = 2  # the recurrent pose and position networks
ENCODER_UNITS = 30
LEAKY_SLOPE = 0.05

PARAMETERIZATIONS = ("quaternion", "expmap", "euler-xyz", "euler-yzx")


def pose_dim_per_joint(parameterization: str) -> int:
    if parameterization not in PARAMETERIZATIONS:
        raise ValueError(f"unknown parameterization {parameterization!r}")
    return 4 if parameterization == "quaternion" else 3


def encode_pose(quats: np.ndarray, parameterization: str) -> np.ndarray:
    """Reference rotations (..., A, 4) to flat network inputs (..., A*P)."""
    quats = np.asarray(quats, dtype=float)
    lead = quats.shape[:-2]
    a = quats.shape[-2]
    if parameterization == "quaternion":
        return quats.reshape(lead + (a * 4,))
    if parameterization == "expmap":
        return rm.quat_to_expmap(quats).reshape(lead + (a * 3,))
    order = parameterization.split("-")[1]
    return rm.quat_to_euler(quats, order).angles.reshape(lead + (a * 3,))


def decode_pose_t(flat: Tensor, num_joints: int, parameterization: str) -> Tensor:
    """Flat network pose outputs to quaternions (..., A, 4), autodiff.

    Quaternion outputs are returned raw (pre-normalization) so velocity
    composition and the unit-norm penalty see the head's actual values.
    """
    p = pose_dim_per_joint(parameterization)
    shaped = ad.reshape(flat, flat.shape[:-1] + (num_joints, p))
    if parameterization == "quaternion":
        return shaped
    if parameterization == "expmap":
        return ad.expmap_to_quat(shaped)
    return ad.euler_to_quat(shaped, parameterization.split("-")[1])


# -- configs -----------------------------------------------------------------

@dataclass
class PoseNetworkConfig:
    num_joints: int
    mode: str = "velocity"  # velocity | absolute
    backbone: str = "recurrent"  # recurrent | convolutional
    hidden: int = 1000
    channels: int = 1024
    parameterization: str = "quaternion"
    include_controls: bool = False
    include_translations: bool = False

    def __post_init__(self):
        if self.mode not in ("velocity", "absolute"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.backbone not in ("recurrent", "convolutional"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        pose_dim_per_joint(self.parameterization)
        if self.mode == "velocity" and self.parameterization != "quaternion":
            raise ValueError("velocity mode requires quaternion outputs")
        if self.backbone != "recurrent" and (self.include_controls
                                             or self.include_translations):
            raise ValueError("controls and translations need the recurrent backbone")

    @classmethod
    def desk(cls, num_joints: int, **kw) -> "PoseNetworkConfig":
        kw.setdefault("hidden", 64)
        kw.setdefault("channels", 64)
        return cls(num_joints, **kw)

    @property
    def pose_dim(self) -> int:
        return self.num_joints * pose_dim_per_joint(self.parameterization)

    @property
    def input_dim(self) -> int:
        d = self.pose_dim
        if self.include_translations:
            d += 2
        if self.include_controls:
            d += ENCODER_UNITS
        return d

    @property
    def output_dim(self) -> int:
        return self.pose_dim + (2 if self.include_translations else 0)

    @property
    def conv_dims(self) -> list:
        """Input width of each convolutional layer, then the output width."""
        return ([self.input_dim] + [self.channels] * (CONV_LAYERS - 1)
                + [self.output_dim])

    @property
    def dilations(self) -> list:
        return [2 ** k for k in range(CONV_LAYERS)]

    @property
    def receptive_field(self) -> int:
        # two taps per layer: 1 + sum of dilations
        return 1 + sum(self.dilations)

    @property
    def min_conditioning_frames(self) -> int:
        """The fewest frames ``forward_window`` conditions on: the
        receptive field of the convolutional backbone, else 1."""
        return self.receptive_field if self.backbone == "convolutional" else 1


def expected_param_count(config: PoseNetworkConfig) -> int:
    """Closed-form parameter count, used to guard against architecture
    drift. GRU layer: 3H(I + H + 1) weights plus H for the learned initial
    state. Conv layer: out*(in*W + 1)."""
    n = 0
    if config.include_controls:
        n += (CONTROL_DIM + 1) * ENCODER_UNITS + (ENCODER_UNITS + 1) * ENCODER_UNITS
    if config.backbone == "recurrent":
        h = config.hidden
        i = config.input_dim
        for _ in range(GRU_LAYERS):
            n += 3 * h * (i + h + 1) + h
            i = h
        n += (h + 1) * config.output_dim
        return n
    dims = config.conv_dims
    for fin, fout in zip(dims[:-1], dims[1:]):
        n += fout * (fin * CONV_TAPS + 1)
    return n


# -- shared building blocks ---------------------------------------------------

class _GruStack:
    """Stacked GRU layers over the ``{prefix}.wx/.wh/.b/.h0`` entries of a
    network's params dict, one fused tape node per cell; each layer feeds
    the next."""

    def __init__(self, params: dict, prefixes: list, hidden: int):
        self.params, self.prefixes, self.hidden = params, prefixes, hidden
        self._layers = [tuple(params[f"{prefix}.{k}"] for k in ("wx", "wh", "b"))
                        for prefix in prefixes]

    def init_state(self, batch_size: int) -> list:
        """Per-layer hidden states: the learned h0 broadcast over the batch."""
        zeros = np.zeros((batch_size, self.hidden))
        return [self.params[f"{prefix}.h0"] + zeros for prefix in self.prefixes]

    def step(self, x, state: list) -> list:
        """Advance every layer by one step; returns the new per-layer states,
        the last of which is the stack's output."""
        new_state = []
        for (wx, wh, b), h in zip(self._layers, state):
            x = ad.gru_cell(x, h, wx, wh, b)
            new_state.append(x)
        return new_state

    def sequence(self, x, state: list) -> tuple:
        """Run every layer over a (B, T, I) sequence, one tape node per
        layer; returns the last layer's states (B, T, H) and each layer's
        state after the last step."""
        new_state = []
        for (wx, wh, b), h in zip(self._layers, state):
            x = ad.gru_sequence(x, h, wx, wh, b)
            new_state.append(x[:, -1])
        return x, new_state


def _linear(params: dict, prefix: str, x):
    return ad.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def encode_controls(params: dict, controls):
    """6-feature control frame -> 30-vector, two leaky-ReLU layers."""
    for prefix in ("enc.l1", "enc.l2"):
        controls = ad.leaky_relu(_linear(params, prefix, controls), LEAKY_SLOPE)
    return controls


# -- parameter container ---------------------------------------------------------

def gru_specs(prefixes, input_dim: int, hidden: int) -> list:
    """The ``(name, shape, scale)`` entries of stacked GRU layers, each
    feeding the next, in draw order."""
    scale, specs = 1.0 / np.sqrt(hidden), []
    for prefix in prefixes:
        specs += [(f"{prefix}.wx", (input_dim, 3 * hidden), scale),
                  (f"{prefix}.wh", (hidden, 3 * hidden), scale),
                  (f"{prefix}.b", (3 * hidden,), None), (f"{prefix}.h0", (hidden,), None)]
        input_dim = hidden
    return specs


def linear_specs(prefix: str, fin: int, fout: int) -> list:
    return [(f"{prefix}.w", (fin, fout), 1.0 / np.sqrt(fin)), (f"{prefix}.b", (fout,), None)]


class ParamContainer:
    """Base of the networks: a ``params`` dict of trainable leaf tensors,
    exposed to the optimizer and checkpoints as plain arrays. ``specs``
    declares them as ``(name, shape, scale)`` in draw order: without
    ``params`` each is drawn uniform(-scale, scale) from one seeded stream,
    or is zeros (drawing nothing) for a scale of None; given ``params``,
    they must pass ``check_arrays``."""

    def __init__(self, specs: list, seed: int = 0, params: dict | None = None):
        if params is None:
            rng = np.random.default_rng(seed)
            params = {name: ad.parameter(shape, rng, scale) if scale is not None
                      else ad.parameter(np.zeros(shape)) for name, shape, scale in specs}
        self.shapes = {name: tuple(shape) for name, shape, _ in specs}
        self.check_arrays(params)
        self.params = params

    def check_arrays(self, arrays: dict, names=None, prefix: str = "") -> None:
        """``arrays`` must hold the parameters ``names`` (default all) at their
        declared shapes and nothing else; a ValueError lists each misfit."""
        want = self.shapes if names is None else {k: self.shapes.get(k) for k in names}
        got = {k: v.shape for k, v in arrays.items()}
        bad = [f"{prefix}{k} {got.get(k)} (config: {want.get(k)})"
               for k in sorted(want.keys() | got.keys()) if got.get(k) != want.get(k)]
        if bad:
            raise ValueError(f"stored arrays do not fit the config: {'; '.join(bad)}")

    def param_arrays(self) -> dict:
        return {k: v.data for k, v in self.params.items()}

    def grads(self) -> dict:
        return {k: v.grad for k, v in self.params.items() if v.grad is not None}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# -- pose network --------------------------------------------------------------

class PoseNetwork(ParamContainer):
    """Next-pose predictor over the active joints of one skeleton."""

    def __init__(self, config: PoseNetworkConfig, seed: int = 0, params: dict | None = None):
        self.config = config
        prefixes = [f"gru{layer}" for layer in range(GRU_LAYERS)]
        specs = []
        if config.include_controls:
            specs += (linear_specs("enc.l1", CONTROL_DIM, ENCODER_UNITS)
                      + linear_specs("enc.l2", ENCODER_UNITS, ENCODER_UNITS))
        if config.backbone == "recurrent":
            specs += (gru_specs(prefixes, config.input_dim, config.hidden)
                      + linear_specs("head", config.hidden, config.output_dim))
        else:
            dims = config.conv_dims
            for layer, (fin, fout) in enumerate(zip(dims[:-1], dims[1:])):
                scale = 1.0 / np.sqrt(fin * CONV_TAPS)
                specs += [(f"conv{layer}.w{tap}", (fin, fout), scale) for tap in range(CONV_TAPS)]
                specs.append((f"conv{layer}.b", (fout,), None))
        super().__init__(specs, seed, params)
        if config.backbone == "recurrent":
            self._gru = _GruStack(self.params, prefixes, config.hidden)
        else:
            # per layer: its parameters, the leaky ReLU's slope (None for the
            # last, linear layer) and the index of the earlier output added
            # as a skip; skips connect every other same-width layer (1->3, 2->4)
            self._conv_layers = [
                (tuple(self.params[f"conv{layer}.{k}"] for k in ("w0", "w1", "b")),
                 LEAKY_SLOPE if layer < CONV_LAYERS - 1 else None,
                 layer - 2 if layer in (2, 3) else None) for layer in range(CONV_LAYERS)]

    def init_state(self, batch_size: int) -> list:
        """The state before the first frame. Recurrent: per-layer hidden
        states, the learned h0 broadcast over the batch. Convolutional: per
        layer, the ``(chunks, at)`` of ``_conv`` over the last ``dilation``
        frames, here one all-zero (B, d, C) chunk at offset 0, which is the
        same as causal zero padding."""
        cfg = self.config
        if cfg.backbone == "recurrent":
            return self._gru.init_state(batch_size)
        return [((np.zeros((batch_size, d, fin)),), 0)
                for d, fin in zip(cfg.dilations, cfg.conv_dims)]

    def _head_to_pose(self, raw, prev_quats, state: list) -> dict:
        cfg = self.config
        out = {"state": state, "translations": None}
        pose_raw = raw
        if cfg.include_translations:
            pose_raw, out["translations"] = raw[..., :cfg.pose_dim], raw[..., cfg.pose_dim:]
        raw_q = decode_pose_t(pose_raw, cfg.num_joints, cfg.parameterization)
        if cfg.parameterization != "quaternion":
            # non-quaternion heads are unit by construction after decoding
            out.update(raw_quats=None, quats=raw_q, feedback=pose_raw)
            return out
        quats = ad.quat_head(raw_q, prev_quats if cfg.mode == "velocity" else None)
        feedback = ad.reshape(quats, quats.shape[:-2] + (cfg.pose_dim,))
        out.update(raw_quats=raw_q, quats=quats, feedback=feedback)
        return out

    def _inputs(self, pose, prev_quats, translations=None, controls=None):
        """Check a (..., pose_dim) pose input and append the side inputs the
        config expects."""
        cfg = self.config
        if pose.shape[-1] != cfg.pose_dim:
            raise ValueError("pose feature size does not match config")
        if cfg.mode == "velocity" and prev_quats is None:
            raise ValueError("velocity mode needs prev_quats")
        parts = [pose]
        if cfg.include_translations:
            if translations is None:
                raise ValueError("config expects translation inputs")
            parts.append(translations)
        if cfg.include_controls:
            if controls is None:
                raise ValueError("config expects control inputs")
            parts.append(encode_controls(self.params, controls))
        return ad.concat(parts, axis=-1) if len(parts) > 1 else pose

    def step(self, pose, state: list, prev_quats=None, translations=None, controls=None) -> dict:
        """One prediction step; the convolutional backbone computes one new
        frame per layer.

        ``pose`` is the previous pose in the network's parameterization,
        (B, pose_dim); ``prev_quats`` (B, A, 4) is required in velocity
        mode; ``state`` comes from ``forward_window`` or the previous step.
        Returns quats, raw_quats, feedback, translations, state: Tensors on
        the tape, plain arrays off it (``_conv`` gives the convolutional
        state). A state is never written to, so one state can be stepped
        from twice; it holds views of the inputs, which callers must not
        overwrite. Unlike ``forward_window`` it does not check the state
        for non-finite values; callers check the frames they keep.
        """
        x = self._inputs(pose, prev_quats, translations, controls)
        if self.config.backbone == "recurrent":
            state = self._gru.step(x, state)
            raw = _linear(self.params, "head", state[-1])
        else:
            raw, state = self._conv(ad.reshape(x, (x.shape[0], 1, x.shape[1])), state)
        return self._head_to_pose(raw, prev_quats, state)

    def forward_window(self, pose_window, prev_quats=None, translations=None,
                       controls=None) -> dict:
        """Condition on a (B, T, pose_dim) window from ``init_state`` and
        predict the frame after it, as T steps would, but with one head
        output. Side inputs are per frame, (B, T, 2) and (B, T, 6);
        ``prev_quats`` (B, A, 4) is the last frame's. The recurrent backbone
        builds each frame's inputs as ``step`` does; the convolutional one
        reads the last ``receptive_field`` frames. T below
        ``config.min_conditioning_frames`` is a ValueError. Inputs may be
        Tensors or arrays; outputs are as ``step``'s."""
        cfg = self.config
        b, t = pose_window.shape[:2]
        if t < cfg.min_conditioning_frames:
            raise ValueError(f"the {cfg.backbone} backbone needs >= "
                             f"{cfg.min_conditioning_frames} frames, got {t}")
        state = self.init_state(b)
        if cfg.backbone == "recurrent":
            _, state = self._gru.sequence(
                self._inputs(pose_window, prev_quats, translations, controls), state)
            raw = _linear(self.params, "head", state[-1])
            kept = state
        else:
            raw, state = self._conv(
                self._inputs(pose_window[:, t - cfg.receptive_field:], prev_quats), state)
            kept = [ad._array(chunks[0])[:, at:] for chunks, at in state]
        if not np.isfinite(np.concatenate([ad._array(s) for s in kept], axis=None)).all():
            raise ad.NumericalError("non-finite network state")
        return self._head_to_pose(raw, prev_quats, state)

    # -- convolutional path ------------------------------------------------

    def _conv(self, x, state: list) -> tuple:
        """The causal convolutions over x (B, T, C), each of width 2:
        y[t] = w0.x[t-d] + w1.x[t] + b. All but the last (linear) layer are
        leaky ReLUs, and additive skips connect every other same-width layer.
        Layer l's state ``(chunks, at)`` holds its inputs, oldest first, its
        last d frames from ``chunks[0][:, at]`` on, where the lag tap is read.
        x is a window from ``init_state`` (leaving ``((x,), T - d)``) or one
        frame; it is appended and a used-up first chunk dropped, writing
        nothing. Off the tape the new states hold arrays only. Returns the
        last layer's output for the last frame (B, out) and the new states."""
        t = x.shape[1]
        if type(x) is np.ndarray is not type(state[-1][0][-1]):  # off the tape, a taped state
            state = [(tuple(map(ad._array, chunks)), at) for chunks, at in state]
        outs, new_state = [], []
        for (chunks, at), ((w0, w1, b), slope, skip) in zip(state, self._conv_layers):
            past = chunks[0]
            new_state.append((chunks + (x,), at + t) if at + t < past.shape[1]
                             else (chunks[1:] + (x,), at + t - past.shape[1]))
            x = ad.causal_conv(x, past, w0, w1, b, slope, None if skip is None else outs[skip], at)
            outs.append(x)
        return x[:, -1], new_state


# -- checkpoints ------------------------------------------------------------------

def save_checkpoint(path, kind: str, config: dict, arrays: dict, meta: dict | None = None) -> None:
    """Versioned container (see ``motiondata._write_container``): a JSON
    header (version, kind, config, meta, array manifest of names and
    shapes), then the arrays as float64 in manifest (sorted-name) order."""
    names = sorted(arrays)
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": config,
        "meta": meta or {},
        "arrays": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names],
    }
    _write_container(path, CHECKPOINT_MAGIC, header, (arrays[n] for n in names), "<f8")


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh, _read_header(fh, path, CHECKPOINT_MAGIC, "checkpoint") as header:
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        arrays = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            arrays[spec["name"]] = np.frombuffer(
                _read_exact(fh, count * 8), dtype="<f8").reshape(shape).astype(float)
        return {"kind": header["kind"], "config": header["config"],
                "meta": header["meta"], "arrays": arrays}


def drop_fixed(stored: dict, fixed: dict) -> dict:
    """``stored`` without the keys of ``fixed``, settings that became constants;
    a value other than its fixed one raises ValueError naming key and value."""
    for key, value in fixed.items():
        if stored.get(key, value) != value:
            raise ValueError(f"{key} must be {value}, got {stored[key]!r}")
    return {k: v for k, v in stored.items() if k not in fixed}


# perfbench still reaches these locomotion names here and traces some of them by
# this module, so each is looked up at call time, which finds the traced object.
# The lookup goes when ROADMAP item 3 renames the spans.
def __getattr__(name: str):
    if name in ("PaceNetwork", "PaceNetworkConfig", "generate_locomotion"):
        return getattr(sys.modules[f"{__package__}.locomotion"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
