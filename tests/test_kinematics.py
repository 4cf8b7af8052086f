import numpy as np
import pytest

from quatmotion import autodiff as ad
from quatmotion import rotmath as rm
from quatmotion.autodiff import Tensor
from quatmotion.kinematics import (IkConfig, Skeleton, forward_kinematics,
                                   forward_kinematics_tensor, ik_reproject,
                                   per_frame_velocity_error, position_error,
                                   velocity_error)

from conftest import random_unit_quats


def random_chain(rng, n):
    offs = rng.normal(size=(n, 3))
    offs[0] = 0
    return Skeleton.from_joints(
        [{"name": f"j{i}", "parent": i - 1, "offset": offs[i]}
         for i in range(n)])


def matrix_fk(skel, quats, root):
    """Homogeneous-transform FK, written independently of the package."""
    n = skel.num_joints
    world = [None] * n
    for j in range(n):
        local = np.eye(4)
        local[:3, :3] = rm.quat_to_matrix(quats[j])
        local[:3, 3] = skel.offsets[j]
        if j == 0:
            world[j] = np.eye(4)
            world[j][:3, 3] = root
            world[j] = world[j] @ local
        else:
            world[j] = world[skel.parents[j]] @ local
    return np.array([w[:3, 3] for w in world])


def test_fk_matches_matrix_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        skel = random_chain(rng, n)
        q = random_unit_quats(rng, (n,))
        root = rng.normal(size=3)
        got = forward_kinematics(skel, q, root)
        assert np.abs(got - matrix_fk(skel, q, root)).max() < 1e-9


def test_bone_lengths_invariant(rng):
    skel = random_chain(rng, 6)
    q = random_unit_quats(rng, (20, 6))
    pos = forward_kinematics(skel, q, np.zeros((20, 3)))
    lens = np.linalg.norm(pos[:, 1:] - pos[:, skel.parents[1:]], axis=-1)
    assert np.abs(lens - skel.bone_lengths()[1:]).max() < 1e-12


def test_tensor_fk_matches_numpy(rng):
    skel = random_chain(rng, 5)
    q = random_unit_quats(rng, (4, 5))
    root = rng.normal(size=(4, 3))
    got = forward_kinematics_tensor(skel, Tensor(q), root)
    assert np.abs(got.data - forward_kinematics(skel, q, root)).max() < 1e-12


def test_tensor_fk_is_one_tape_node(rng):
    skel = random_chain(rng, 5)
    q = Tensor(random_unit_quats(rng, (4, 5)), requires_grad=True)
    pos = forward_kinematics_tensor(skel, q, np.zeros((4, 3)))
    assert pos._parents == (q,)


def test_fk_with_inactive_joints(rng):
    joints = [{"name": "a", "parent": -1, "offset": [0, 0, 0]},
              {"name": "b", "parent": 0, "offset": [1, 0, 0]},
              {"name": "b_end", "parent": 1, "offset": [0, 1, 0]}]
    skel = Skeleton.from_joints(joints)
    skel.dof_active[2] = False
    q = random_unit_quats(rng, (2,))
    pos = forward_kinematics(skel, q, np.zeros(3))
    # leaf inherits its parent's frame
    want = pos[1] + rm.rotate_vector(rm.qmul(q[0], q[1]), [0, 1, 0])
    assert np.allclose(pos[2], want)


def test_topology_validation():
    with pytest.raises(ValueError):
        Skeleton.from_joints([{"name": "a", "parent": 0, "offset": [0, 0, 0]}])
    with pytest.raises(ValueError):
        Skeleton.from_joints([{"name": "a", "parent": -1, "offset": [0, 0, 0]},
                              {"name": "b", "parent": 2, "offset": [1, 0, 0]},
                              {"name": "c", "parent": 0, "offset": [1, 0, 0]}])


def test_error_metrics(rng):
    a = rng.normal(size=(5, 3, 3))
    b = a + 1.0
    assert position_error(a, b) == pytest.approx(np.sqrt(3))
    assert velocity_error(a, a + 0.0) == 0.0
    pf = per_frame_velocity_error(a, b)
    assert pf.shape == (4,)
    assert np.allclose(pf, 0.0)


def test_ik_recovers_target(rng):
    skel = random_chain(rng, 4)
    q = random_unit_quats(rng, (2, 4))
    target = forward_kinematics(skel, q, np.zeros((2, 3)))
    init = np.tile([1.0, 0, 0, 0], (2, 4, 1))
    got = ik_reproject(skel, target, init,
                       IkConfig(step_size=2e-2, step_decay=0.997,
                                max_steps=1800, patience=500))
    pos = forward_kinematics(skel, got, np.zeros((2, 3)))
    assert np.linalg.norm(pos - target, axis=-1).max() < 1e-3
    assert np.abs(np.linalg.norm(got, axis=-1) - 1).max() < 1e-12


def test_ik_reports_why_it_stopped():
    # criterion 10a's first chain
    crit = np.random.default_rng(0)
    skel = random_chain(crit, 5)
    target = forward_kinematics(skel, random_unit_quats(crit, (8, 5)), np.zeros((8, 3)))
    init = np.tile([1.0, 0, 0, 0], (8, 5, 1))
    info = {}
    ik_reproject(skel, target, init, IkConfig(max_steps=1800, patience=500), info=info)
    assert info["stop"] == "tol" and info["iterations"] <= 50
    assert info["cost"] < 1e-20
    ik_reproject(skel, target, init, IkConfig(max_steps=1), info=info)
    assert info["stop"] == "max_steps" and info["iterations"] == 1
    assert info["cost"] > 1e-3


def branching_skeleton(rng):
    """Root, spine, and two two-joint arms that end in active leaves; the
    second arm hangs from an inactive joint with a non-identity constant
    rotation."""
    parents = [-1, 0, 1, 2, 1, 4, 5]
    offsets = rng.normal(size=(7, 3))
    offsets[0] = 0
    active = np.ones(7, dtype=bool)
    active[4] = False
    const = np.tile([1.0, 0, 0, 0], (7, 1))
    const[4] = random_unit_quats(rng, ())
    return Skeleton([f"j{i}" for i in range(7)], parents, offsets, active, const)


@pytest.mark.parametrize("lead", [(2, 3), ()])
def test_ik_recovers_branching_target(rng, lead):
    skel = branching_skeleton(rng)
    truth = random_unit_quats(rng, lead + (skel.num_active,))
    target = forward_kinematics(skel, truth, np.zeros(lead + (3,)))
    # start a moderate rotation away from the truth, as when reprojecting
    # from the previous frame; the active leaf (last joint) starts at identity
    init = rm.qmul(truth, rm.expmap_to_quat(0.3 * rng.normal(size=truth.shape[:-1] + (3,))))
    init[..., -1, :] = [1.0, 0, 0, 0]
    got = ik_reproject(skel, target, init, IkConfig(max_steps=200, patience=50))
    assert got.shape == truth.shape and np.isfinite(got).all()
    assert np.abs(np.linalg.norm(got, axis=-1) - 1).max() < 1e-12
    assert np.allclose(got[..., -1, :], [1.0, 0, 0, 0], rtol=0, atol=1e-12)
    pos = forward_kinematics(skel, got, np.zeros(lead + (3,)))
    assert np.linalg.norm(pos - target, axis=-1).max() < 1e-9
    lens = np.linalg.norm(pos[..., 1:, :] - pos[..., skel.parents[1:], :], axis=-1)
    assert np.abs(lens - skel.bone_lengths()[1:]).max() < 1e-12


def test_ik_rejects_bad_target(rng):
    skel = random_chain(rng, 3)
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        ik_reproject(skel, bad, np.tile([1.0, 0, 0, 0], (3, 1)))


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_ik_rejects_bad_init(rng, fill):
    skel = random_chain(rng, 3)
    target = forward_kinematics(skel, random_unit_quats(rng, (3,)), np.zeros(3))
    init = np.tile([1.0, 0, 0, 0], (3, 1))
    init[1] = fill
    with pytest.raises(ValueError, match="init"):
        ik_reproject(skel, target, init)


def test_positional_loss_gradient_through_fk(rng):
    from quatmotion.gradcheck import check_scalar_fn
    from quatmotion.kinematics import position_error_tensor
    skel = random_chain(rng, 4)
    q = random_unit_quats(rng, (2, 4))
    ref = forward_kinematics(skel, random_unit_quats(rng, (2, 4)),
                             np.zeros((2, 3)))

    def builder(t):
        pos = forward_kinematics_tensor(skel, ad.quat_head(t),
                                        np.zeros((2, 3)))
        return position_error_tensor(pos, ref)

    assert check_scalar_fn(builder, q.copy()) < 1e-5
