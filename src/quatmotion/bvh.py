"""BVH motion-capture import and export.

Supported subset: HIERARCHY/MOTION sections, OFFSET, CHANNELS with 3
rotation channels (or 6 position+rotation channels on any joint), End
Sites, ``Frames:`` and ``Frame Time:``. Rotations are in degrees per the
BVH convention and are converted to quaternions honoring each joint's
channel order. The arrays are returned raw; ``motiondata.load_bvh`` wraps
them in a ``MotionClip``, which fixes antipodal continuity.

The hierarchy and the ``Frames:``/``Frame Time:`` header are tokenised one
line at a time. The motion block is split once and converted with one
``np.array(..., dtype=float)`` call, which parses each token with Python's
``float()``. Only if that fails is the block re-read token by token, so
that the error names the line of the bad value. Values past the last frame
are ignored. The writer formats the whole motion block with one ``%``
operation, each value as ``%.6f``.
"""

from __future__ import annotations

import numpy as np

from .kinematics import Skeleton
from .rotmath import euler_to_quat, joint_euler

_ROT_CHANNELS = {"Xrotation": "x", "Yrotation": "y", "Zrotation": "z"}
_POS_CHANNELS = ("Xposition", "Yposition", "Zposition")


class BvhParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedBvhFeatureError(BvhParseError):
    pass


class _Tokens:
    """Whitespace tokens with their line numbers, split one line at a time."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.row = 0  # next line to split
        self.items: list[str] = []  # tokens of line ``lineno``
        self.pos = 0  # next token in ``items``
        self.lineno = 0  # line of ``items``: that of the last token read or peeked

    def _fill(self) -> bool:
        while self.pos >= len(self.items):
            if self.row >= len(self.lines):
                return False
            self.row += 1
            items = self.lines[self.row - 1].split()
            if items:
                self.items, self.pos, self.lineno = items, 0, self.row
        return True

    @property
    def line(self) -> int:
        """Line of the next token, or of the last one at end of file."""
        self._fill()
        return self.lineno

    def rest(self) -> list[str]:
        """Every token not yet read, without reading them."""
        return self.items[self.pos:] + " ".join(self.lines[self.row:]).split()

    def peek(self) -> str:
        if not self._fill():
            raise BvhParseError("unexpected end of file", self.line)
        return self.items[self.pos]

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.next()
        if tok != want:
            raise BvhParseError(f"expected {want!r}, got {tok!r}", self.lineno)

    def number(self) -> float:
        tok = self.next()
        try:
            return float(tok)
        except ValueError:
            raise BvhParseError(f"expected a number, got {tok!r}", self.lineno) from None

    def count(self) -> int:
        value = self.number()
        if not (0 <= value < np.inf and value.is_integer()):
            raise BvhParseError(f"expected a count, got {value!r}", self.lineno)
        return int(value)


def _parse_joint(tokens: _Tokens, parent: int, joints: list, channels: list) -> None:
    kind = tokens.next()
    if kind == "End":
        tokens.expect("Site")
        name = None  # named by _name_end_sites once every joint name is known
    elif kind in ("ROOT", "JOINT"):
        name = tokens.next()
        if any(joint["name"] == name for joint in joints):
            raise BvhParseError(f"duplicate joint name {name!r}", tokens.lineno)
    else:
        raise BvhParseError(f"expected ROOT/JOINT/End, got {kind!r}", tokens.lineno)
    tokens.expect("{")
    tokens.expect("OFFSET")
    offset = [tokens.number() for _ in range(3)]
    index = len(joints)
    joint = {"name": name, "parent": parent, "offset": offset, "euler_order": "zyx"}
    joints.append(joint)
    spec = None
    if kind != "End":
        tokens.expect("CHANNELS")
        n = tokens.count()
        names = [tokens.next() for _ in range(n)]
        rot = sorted(_ROT_CHANNELS)
        if n == 3 and sorted(names) == rot:
            spec = {"joint": index, "position": False, "rotation": names}
        elif n == 6 and tuple(names[:3]) == _POS_CHANNELS and sorted(names[3:]) == rot:
            spec = {"joint": index, "position": True, "rotation": names[3:]}
        else:
            raise UnsupportedBvhFeatureError(
                f"unsupported channel set {names} on joint {name!r}", tokens.lineno
            )
        joint["euler_order"] = "".join(_ROT_CHANNELS[c] for c in spec["rotation"])
        channels.append(spec)
    while tokens.peek() != "}":
        _parse_joint(tokens, index, joints, channels)
    tokens.expect("}")


def _name_end_sites(joints: list) -> None:
    """Name each End Site ``<parent>_end``, or ``<parent>_<k>_end`` with the
    smallest k >= 2 that no other joint's name takes, so the names stay
    distinct and keep the ``_end`` ending :func:`save_bvh` reads."""
    taken = {joint["name"] for joint in joints}
    for joint in joints:  # a parent comes before its children
        if joint["name"] is None:
            stem, k = joints[joint["parent"]]["name"], 1
            name = f"{stem}_end"
            while name in taken:
                k += 1
                name = f"{stem}_{k}_end"
            joint["name"] = name
            taken.add(name)


def load_bvh(path):
    """Parse a BVH file into a :class:`Skeleton` and raw motion arrays.

    Returns ``(skeleton, frame_rate, root_positions (T, 3),
    rotations (T, J, 4))``. Joints without rotation channels (End Sites)
    carry identity rotations. Root position defaults to the root OFFSET if
    the file has no position channels.
    """
    # undecodable bytes become U+FFFD, which no keyword or number matches
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    tokens = _Tokens(text)
    tokens.expect("HIERARCHY")
    joints: list = []
    channels: list = []
    _parse_joint(tokens, -1, joints, channels)
    _name_end_sites(joints)

    tokens.expect("MOTION")
    tokens.expect("Frames:")
    n_frames = tokens.count()
    tokens.expect("Frame")
    tokens.expect("Time:")
    frame_time = tokens.number()
    if not 0.0 < frame_time < np.inf:
        raise BvhParseError("Frame Time must be positive and finite", tokens.lineno)

    width = sum(6 if c["position"] else 3 for c in channels)
    rest = tokens.rest()
    if n_frames * width > len(rest):
        raise BvhParseError(f"fewer values than {n_frames} frames need", tokens.line)
    try:
        values = np.array(rest[:n_frames * width], dtype=float).reshape(n_frames, width)
    except ValueError:
        # token by token, only to name the line of the bad value
        values = np.empty((n_frames, width))
        for f in range(n_frames):
            for c in range(width):
                values[f, c] = tokens.number()

    n_joints = len(joints)
    skel = Skeleton.from_joints(joints)
    has_channels = {c["joint"] for c in channels}
    for j in range(n_joints):
        if j not in has_channels:
            skel.dof_active[j] = False
    rotations = np.zeros((n_frames, n_joints, 4))
    rotations[..., 0] = 1.0
    root_positions = np.tile(skel.offsets[0], (n_frames, 1))
    col = 0
    for c in channels:
        if c["position"]:
            if c["joint"] == 0:
                root_positions = values[:, col:col + 3].copy()
            col += 3
        order = skel.euler_orders[c["joint"]]
        angles = np.deg2rad(values[:, col:col + 3])
        rotations[:, c["joint"]] = euler_to_quat(angles, order)
        col += 3
    return skel, 1.0 / frame_time, root_positions, rotations


def save_bvh(path, skel: Skeleton, frame_rate: float,
             root_positions: np.ndarray, rotations: np.ndarray) -> None:
    """Write a BVH file; rotations ``(T, J, 4)`` cover all joints.

    The root gets 6 channels, every non-End-Site joint 3 rotation channels
    in the skeleton's per-joint Euler order; ``*_end`` joints become End
    Sites.
    """
    rotations = np.asarray(rotations, dtype=float)
    root_positions = np.asarray(root_positions, dtype=float)
    n_frames = rotations.shape[0]
    children: dict[int, list[int]] = {j: [] for j in range(-1, skel.num_joints)}
    for j in range(skel.num_joints):
        children[int(skel.parents[j])].append(j)

    lines: list[str] = ["HIERARCHY"]
    columns: list[int] = []  # joints with channels, root first

    def chan_names(order: str) -> list[str]:
        inv = {v: k for k, v in _ROT_CHANNELS.items()}
        return [inv[c] for c in order]

    def emit(j: int, indent: int) -> None:
        pad = "  " * indent
        is_end = skel.names[j].endswith("_end") and not children[j]
        if is_end:
            lines.append(f"{pad}End Site")
            lines.append(pad + "{")
            lines.append(f"{pad}  OFFSET {skel.offsets[j][0]:.6f} {skel.offsets[j][1]:.6f} {skel.offsets[j][2]:.6f}")
            lines.append(pad + "}")
            return
        kw = "ROOT" if j == 0 else "JOINT"
        lines.append(f"{pad}{kw} {skel.names[j]}")
        lines.append(pad + "{")
        lines.append(f"{pad}  OFFSET {skel.offsets[j][0]:.6f} {skel.offsets[j][1]:.6f} {skel.offsets[j][2]:.6f}")
        names = chan_names(skel.euler_orders[j])
        if j == 0:
            lines.append(f"{pad}  CHANNELS 6 Xposition Yposition Zposition " + " ".join(names))
        else:
            lines.append(f"{pad}  CHANNELS 3 " + " ".join(names))
        columns.append(j)
        kids = children[j]
        if kids:
            for k in kids:
                emit(k, indent + 1)
        else:
            lines.append(f"{pad}  End Site")
            lines.append(pad + "  {")
            lines.append(f"{pad}    OFFSET 0.000000 0.000000 0.000000")
            lines.append(pad + "  }")
        lines.append(pad + "}")

    emit(0, 0)
    lines.append("MOTION")
    lines.append(f"Frames: {n_frames}")
    lines.append(f"Frame Time: {1.0 / frame_rate:.8f}")

    deg = np.rad2deg(joint_euler(rotations[:, columns], [skel.euler_orders[j] for j in columns]))
    data = np.concatenate([root_positions, deg.reshape(n_frames, 3 * len(columns))], axis=1)
    if n_frames:
        row = " ".join(["%.6f"] * data.shape[1])
        lines.append("\n".join([row] * n_frames) % tuple(data.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
