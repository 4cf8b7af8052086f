import numpy as np
import pytest

from quatmotion import motiondata as md
from quatmotion.bvh import BvhParseError, load_bvh, save_bvh

SIMPLE = """HIERARCHY
ROOT hips
{
  OFFSET 0.0 0.0 0.0
  CHANNELS 6 Xposition Yposition Zposition Zrotation Yrotation Xrotation
  JOINT chest
  {
    OFFSET 0.0 1.0 0.0
    CHANNELS 3 Zrotation Xrotation Yrotation
    End Site
    {
      OFFSET 0.0 0.5 0.0
    }
  }
}
MOTION
Frames: 2
Frame Time: 0.04
0.0 1.0 0.0 10.0 20.0 30.0 5.0 0.0 -5.0
0.1 1.0 0.0 12.0 21.0 31.0 6.0 1.0 -4.0
"""


@pytest.fixture
def simple_bvh(tmp_path):
    p = tmp_path / "simple.bvh"
    p.write_text(SIMPLE)
    return p


def test_parse_simple(simple_bvh):
    skel, fr, root, rots = load_bvh(simple_bvh)
    assert skel.names == ["hips", "chest", "chest_end"]
    assert fr == pytest.approx(25.0)
    assert root.shape == (2, 3)
    assert rots.shape == (2, 3, 4)
    assert skel.euler_orders[0] == "zyx"
    assert skel.euler_orders[1] == "zxy"
    assert not skel.dof_active[2]
    assert np.allclose(root[0], [0, 1, 0])


def test_end_site_beside_a_joint_named_parent_end_loads(tmp_path):
    # chest's End Site would be chest_end, which the file's next joint is called
    sibling = ("  JOINT chest_end\n  {\n    OFFSET 0.0 -1.0 0.0\n"
               "    CHANNELS 3 Zrotation Xrotation Yrotation\n"
               "    End Site\n    {\n      OFFSET 0.0 -0.5 0.0\n    }\n  }\n}\nMOTION")
    text = (SIMPLE.replace("}\nMOTION", sibling).replace("5.0 0.0 -5.0", "5.0 0.0 -5.0 1.0 2.0 3.0")
            .replace("6.0 1.0 -4.0", "6.0 1.0 -4.0 4.0 5.0 6.0"))
    p = tmp_path / "sibling.bvh"
    p.write_text(text)
    skel, fr, root, rots = load_bvh(p)
    names = ["hips", "chest", "chest_2_end", "chest_end", "chest_end_end"]
    assert skel.names == names
    assert skel.parents.tolist() == [-1, 0, 1, 0, 3]
    assert skel.dof_active.tolist() == [True, True, False, True, False]
    save_bvh(tmp_path / "back.bvh", skel, fr, root, rots)
    back = load_bvh(tmp_path / "back.bvh")
    assert back[0].names == names
    assert np.abs(back[3] - rots).max() < 1e-6


def test_antipodal_flip_loads_sign_continuous(tmp_path):
    # chest turns 179 -> -179 degrees about z: the raw quaternions of the
    # two frames are nearly antipodal, the loaded clip's are not
    text = SIMPLE.replace("5.0 0.0 -5.0", "179.0 0.0 0.0").replace(
        "6.0 1.0 -4.0", "-179.0 0.0 0.0")
    p = tmp_path / "flip.bvh"
    p.write_text(text)
    raw = load_bvh(p)[3]
    assert np.sum(raw[0, 1] * raw[1, 1]) < -0.99
    rots = md.load_bvh(p)[1].rotations
    assert (np.sum(rots[1:] * rots[:-1], axis=-1) >= 0).all()
    assert np.array_equal(rots[1, 1], -raw[1, 1])
    assert np.array_equal(rots[:, 0], raw[:, 0])


def test_round_trip(tmp_path, gait):
    skel, clip, _ = gait
    p = tmp_path / "out.bvh"
    md.save_bvh(p, clip)
    back = md.load_bvh(p)[1]
    # the writer adds end sites to channelled leaves and end-site names are
    # not stored, so compare through world positions of the named joints
    keep = [back.skeleton.names.index(n) for n in skel.names
            if n in back.skeleton.names]
    assert len(keep) == skel.num_joints - 1  # head_end loses its name
    got = back.positions()[:, keep]
    want = clip.positions()[:, [skel.names.index(back.skeleton.names[i])
                                for i in keep]]
    assert np.abs(got - want).max() < 1e-4
    dots = np.abs(np.sum(back.rotations[:, keep] *
                         clip.rotations[:, [skel.names.index(back.skeleton.names[i])
                                            for i in keep]], axis=-1))
    assert dots.min() > 1 - 1e-8
    assert np.abs(back.root_positions - clip.root_positions).max() < 1e-5


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.bvh"
    p.write_text("HIERARCHY\nROOT hips\n{\n  OFFSET a b c\n")
    with pytest.raises(BvhParseError) as exc:
        load_bvh(p)
    assert exc.value.line == 4


@pytest.mark.parametrize("old,new,line", [
    ("5.0 0.0 -5.0", "5.0 0.0 -5.0x", 19),  # the first motion value
    ("OFFSET 0.0 1.0 0.0", "OFFSET 0.0 1.0 0.0x", 8),
    ("End Site", "End Sitx", 10),
    ("Frames: 2", "Frames: 2.5", 17),
    ("JOINT chest", "JOINT hips", 6),
], ids=["motion-value", "offset", "keyword", "count", "duplicate-name"])
def test_bad_token_at_line_end_names_its_line(tmp_path, old, new, line):
    p = tmp_path / "bad.bvh"
    p.write_text(SIMPLE.replace(old, new, 1))
    with pytest.raises(BvhParseError) as exc:
        load_bvh(p)
    assert exc.value.line == line


def test_missing_motion_section(tmp_path):
    p = tmp_path / "nomotion.bvh"
    p.write_text(SIMPLE.split("MOTION")[0])
    with pytest.raises(BvhParseError):
        load_bvh(p)


def test_frame_count_mismatch(tmp_path):
    p = tmp_path / "short.bvh"
    lines = SIMPLE.strip().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(BvhParseError):
        load_bvh(p)


@pytest.mark.parametrize("old,new", [
    (b"Frames: 2", b"Frames: inf"),
    (b"Frames: 2", b"Frames: 9"),
    (b"CHANNELS 3", b"CHANNELS inf"),
    (b"Zrotation Xrotation Yrotation", b"Zrotation Zrotation Yrotation"),
    (b"Frame Time: 0.04", b"Frame Time: nan"),
    (b"Frame Time: 0.04", b"Frame Time: 0.\xff04"),
])
def test_corrupt_field_is_parse_error(tmp_path, old, new):
    p = tmp_path / "corrupt.bvh"
    p.write_bytes(SIMPLE.encode().replace(old, new))
    with pytest.raises(BvhParseError):
        load_bvh(p)


def _saved(tmp_path, gait, frames=40):
    clip = gait[1].slice(0, frames)
    p = tmp_path / "saved.bvh"
    md.save_bvh(p, clip)
    return p, p.read_text().splitlines()


def _same(a, b):
    """Two ``load_bvh`` results are bit-identical."""
    return (a[0].names == b[0].names and a[1] == b[1]
            and all(x.tobytes() == y.tobytes() for x, y in zip(a[2:], b[2:])))


def test_motion_block_matches_per_token_parse(tmp_path, gait, monkeypatch):
    p, _ = _saved(tmp_path, gait)
    fast = load_bvh(p)
    array = np.array

    def no_str_lists(obj, *args, **kwargs):
        if isinstance(obj, list) and obj and isinstance(obj[0], str):
            raise ValueError("per-token parse")
        return array(obj, *args, **kwargs)

    monkeypatch.setattr(np, "array", no_str_lists)
    slow = load_bvh(p)
    monkeypatch.undo()
    assert _same(fast, slow)


def test_bad_motion_value_names_its_line(tmp_path, gait):
    p, lines = _saved(tmp_path, gait)
    row = lines.index("MOTION") + 3 + 30  # the 31st frame
    values = lines[row].split()
    values[4] = "1.0x"
    lines[row] = " ".join(values)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(BvhParseError, match="expected a number, got '1.0x'") as exc:
        load_bvh(p)
    assert exc.value.line == row + 1


def test_one_value_short_is_parse_error(tmp_path, gait):
    p, lines = _saved(tmp_path, gait)
    lines[-1] = lines[-1].rsplit(" ", 1)[0]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(BvhParseError, match="fewer values than 40 frames need"):
        load_bvh(p)


def test_trailing_tokens_are_ignored(tmp_path, gait):
    p, lines = _saved(tmp_path, gait)
    want = load_bvh(p)
    p.write_text("\n".join(lines) + "\n1.0 2.0\n\nnot-a-number\n")
    assert _same(load_bvh(p), want)


def test_save_motion_block_is_per_value_six_decimals(tmp_path, gait):
    from quatmotion.rotmath import quat_to_euler
    skel, clip = gait[0], gait[1].slice(0, 7)
    root = clip.root_positions.copy()
    root[0] = [-0.0, -1e-7, 1e12]  # signed zero, rounds to -0.000000, large
    root[1] = [np.nan, np.inf, -np.inf]
    p = tmp_path / "pinned.bvh"
    save_bvh(p, skel, clip.frame_rate, root, clip.rotations)
    lines = p.read_text().splitlines()
    names = [line.split()[1] for line in lines if line.split()[0] in ("ROOT", "JOINT")]
    cols = [root]
    for name in names:
        j = skel.names.index(name)
        cols.append(np.rad2deg(quat_to_euler(clip.rotations[:, j], skel.euler_orders[j]).angles))
    data = np.concatenate(cols, axis=1)
    want = [" ".join(f"{v:.6f}" for v in row) for row in data]
    assert lines[lines.index("MOTION") + 3:] == want
    assert lines[lines.index("MOTION") + 3].startswith("-0.000000 -0.000000 1000000000000.000000")
    assert p.read_text().endswith(want[-1] + "\n")


def test_save_mixed_orders_bytes_are_pinned(tmp_path):
    import hashlib
    from quatmotion.kinematics import Skeleton
    from quatmotion.rotmath import TAIT_BRYAN_ORDERS, euler_to_quat

    # an 11-joint binary tree using every Euler order, one joint at gimbal lock
    rng = np.random.default_rng(11)
    skel = Skeleton.from_joints([
        {"name": f"j{i}", "parent": (i - 1) // 2, "offset": rng.normal(size=3).tolist(),
         "euler_order": TAIT_BRYAN_ORDERS[i % 6]} for i in range(11)])
    q = rng.normal(size=(6, 11, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    q[2, 3] = euler_to_quat([0.3, np.pi / 2, 0.2], skel.euler_orders[3])
    p = tmp_path / "mixed.bvh"
    save_bvh(p, skel, 30.0, rng.normal(size=(6, 3)), q)
    # recorded with the per-joint conversion loop the writer had before
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "247bf4cf3438dc4f9d6369e5a93b1d71bb2846b85d26a5b4674b02e5d13f8ae9")


def test_save_zero_frames(tmp_path, gait):
    skel = gait[0]
    p = tmp_path / "empty.bvh"
    save_bvh(p, skel, 30.0, np.zeros((0, 3)), np.zeros((0, skel.num_joints, 4)))
    assert p.read_text().endswith("Frames: 0\nFrame Time: 0.03333333\n")
    assert load_bvh(p)[3].shape[0] == 0
