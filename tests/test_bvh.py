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
