"""Fuzz the file readers: truncated, bit-flipped and random bytes.

A corrupt input may only raise ValueError (``BvhParseError`` is one), and
for ``.qmc`` clips and checkpoints the message must name the file.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quatmotion import cli
from quatmotion import locomotion as lo
from quatmotion import models as mo
from quatmotion import motiondata as md


def _valid_blobs(tmp_path) -> dict:
    skel, clips = lo.make_synth_corpus(1, seed=0, duration=2)
    clip = clips[0].slice(0, 3)
    md.save_clip(tmp_path / "valid.qmc", clip)
    md.save_bvh(tmp_path / "valid.bvh", clip)
    mo.save_checkpoint(tmp_path / "valid.ckpt", "pose", {"hidden": 2},
                       {"w": np.ones((2, 3)), "b": np.zeros(2)}, {"epoch": 1})
    return {kind: (tmp_path / f"valid.{kind}").read_bytes()
            for kind in ("qmc", "ckpt", "bvh")}


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    return _valid_blobs(tmp_path_factory.mktemp("valid"))


def corruptions(blob: bytes):
    """Truncations, up to four byte flips, and random bytes with or
    without the valid file's first four bytes (the magic)."""
    n = len(blob)

    def flip(edits):
        out = bytearray(blob)
        for i, mask in edits:
            out[i] ^= mask
        return bytes(out)

    return st.one_of(
        st.integers(0, n - 1).map(lambda i: blob[:i]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(flip),
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: blob[:4] + b),
    )


# spellings that float() parses, rejects, or reads as nan/inf/zero
ODD_NUMBERS = [b"nan", b"-nan", b"Infinity", b"1e400", b"1e-400", b"1_0", b"1__0", b"0x1p3",
               b"1.0.0", b"-", b".", b"", b"\xff", "\u0661\u0662".encode(), b"1\x00"]


def motion_edits(blob: bytes):
    """The valid file with one token of its motion block (the lines after
    ``Frame Time:``) replaced, so that the per-token fallback parse runs."""
    lines = blob.split(b"\n")
    first = next(i for i, line in enumerate(lines) if line.startswith(b"Frame Time:")) + 1

    def edit(args):
        row, col, token = args
        out = list(lines)
        values = out[row].split(b" ")
        values[col % len(values)] = token
        out[row] = b" ".join(values)
        return b"\n".join(out)

    token = st.one_of(st.sampled_from(ODD_NUMBERS), st.text(max_size=6).map(str.encode))
    return st.tuples(st.integers(first, len(lines) - 1), st.integers(0, 63), token).map(edit)


LOADERS = {"qmc": (md.load_clip, True), "ckpt": (mo.load_checkpoint, True),
           "bvh": (md.load_bvh, False)}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_file_raises_only_value_error(tmp_path, blobs, kind, data):
    load, names_file = LOADERS[kind]
    path = tmp_path / f"fuzz.{kind}"
    blob = blobs[kind]
    edits = st.one_of(corruptions(blob), motion_edits(blob)) if kind == "bvh" else corruptions(blob)
    path.write_bytes(data.draw(edits))
    try:
        load(path)
    except ValueError as e:
        if names_file:
            assert str(path) in str(e)


def _one_order(skel: dict) -> None:
    skel["euler_orders"] = skel["euler_orders"][:1]


def _order_abc(skel: dict) -> None:
    skel["euler_orders"][3] = "abc"


def _one_constant_rotation(skel: dict) -> None:
    skel["constant_rotations"] = skel["constant_rotations"][:1]


def _short_dof_active(skel: dict) -> None:
    skel["dof_active"] = skel["dof_active"][:1]


def _fractional_parent(skel: dict) -> None:
    skel["parents"][3] = skel["parents"][3] + 0.7


def _duplicate_name(skel: dict) -> None:
    skel["names"][2] = skel["names"][1]


@pytest.mark.parametrize("command", [["baseline", "--kind", "zerovel", "--dataset"],
                                     ["convert", "--bvh", "--in"], ["train-pose", "--dataset"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("edit", [_one_order, _order_abc, _one_constant_rotation,
                                  _short_dof_active, _fractional_parent, _duplicate_name],
                         ids=lambda e: e.__name__)
def test_qmc_skeleton_without_one_order_and_rotation_per_joint_is_data_error(
        tmp_path, capsys, command, edit):
    # a header whose skeleton lists Euler orders, constant rotations or
    # dof_active flags for other than one joint each, an order that is not
    # Tait-Bryan, a parent that is not an integer, or one name for two joints
    _, clips = lo.make_synth_corpus(1, seed=0, duration=2)
    clip = clips[0]
    skel = clip.skeleton.to_dict()
    edit(skel)
    header = {"skeleton": skel, "frame_rate": clip.frame_rate, "num_frames": clip.num_frames,
              "subject": "", "action": ""}
    path = tmp_path / "odd.qmc"
    md._write_container(path, md.QMC_MAGIC, header, (clip.root_positions, clip.rotations), "<f4")
    assert cli.main(command + [str(path), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert str(path) in err and "Traceback" not in out + err
