import numpy as np
import pytest

from quatmotion.kinematics import Skeleton
from quatmotion.locomotion import make_synth_corpus, synth_gait
from quatmotion.motiondata import MotionClip
from quatmotion.rotmath import axis_angle_quat

# a constant 0.7 rad forward bend, far from the identity rotation
SPINE_BEND = axis_angle_quat([1.0, 0.0, 0.0], 0.7)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unit_quats(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def freeze_joint(clip, name, rotation):
    """``clip`` on a copy of its skeleton whose joint ``name`` is inactive
    with constant ``rotation``, which the clip's rotations of it then hold."""
    skel = clip.skeleton
    j = skel.names.index(name)
    dof, const = skel.dof_active.copy(), skel.constant_rotations.copy()
    dof[j], const[j] = False, rotation
    frozen = Skeleton(list(skel.names), skel.parents, skel.offsets, dof, const,
                      list(skel.euler_orders))
    rots = clip.rotations.copy()
    rots[:, j] = rotation
    return MotionClip(frozen, clip.frame_rate, clip.root_positions, rots,
                      clip.subject, clip.action)


@pytest.fixture
def gait():
    skel, clip, feats = synth_gait(frequency=1.2, speed=1.0, duration=10,
                                   seed=0)
    return skel, clip, feats


@pytest.fixture(scope="session")
def corpus():
    skel, clips = make_synth_corpus(3, seed=7, duration=6)
    return skel, clips
