import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatmotion import rotmath as rm

from conftest import random_unit_quats


unit_quat = st.builds(
    lambda w, x, y, z: np.array([w, x, y, z]) / np.linalg.norm([w, x, y, z]),
    *(st.floats(-1, 1).filter(lambda v: abs(v) > 1e-3) for _ in range(4)))


def quat_matrix_oracle(q):
    """Rotation matrix built from first principles for cross-checking."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@given(unit_quat, unit_quat)
@settings(max_examples=100, deadline=None)
def test_qmul_matches_matrix_product(a, b):
    got = rm.quat_to_matrix(rm.qmul(a, b))
    want = quat_matrix_oracle(a) @ quat_matrix_oracle(b)
    assert np.allclose(got, want, atol=1e-9)


def _qmul_written_out(a, b):
    """The Hamilton product term by term, as its 16 products."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("sa, sb", [((4,), (50, 4)), ((50, 4), (4,)), ((7, 1, 4), (1, 9, 4)),
                                    ((2, 8, 24, 4), (2, 8, 24, 4)), ((1, 10, 4), (1, 10, 4))])
def test_qmul_is_written_out_product_bit_for_bit(sa, sb, scale, rng):
    # a single-quaternion operand is where a BLAS matrix product would
    # reorder the sum
    a, b = scale * rng.normal(size=sa), rng.normal(size=sb)
    assert np.array_equal(rm.qmul(a, b), _qmul_written_out(a, b))
    assert np.array_equal(rm.qmul(b, a), _qmul_written_out(b, a))


def test_qmul_is_written_out_product_on_strided_views(rng):
    # forward kinematics multiplies per-joint views [..., j, :] of poses
    a, b = rng.normal(size=(3, 6, 5, 4)), rng.normal(size=(3, 6, 5, 4))
    for j in range(5):
        assert np.array_equal(rm.qmul(a[..., j, :], b[..., j, :]),
                              _qmul_written_out(a[..., j, :], b[..., j, :]))
    va, vb = a[:, ::2, 1], b[:, 1::2, 3]
    assert np.array_equal(rm.qmul(va, vb), _qmul_written_out(va, vb))


@given(unit_quat, st.tuples(*(st.floats(-5, 5) for _ in range(3))))
@settings(max_examples=100, deadline=None)
def test_rotate_vector_matches_matrix(q, v):
    v = np.array(v)
    assert np.allclose(rm.rotate_vector(q, v), quat_matrix_oracle(q) @ v,
                       atol=1e-9)


@pytest.mark.parametrize("sa, sb", [((8, 3), (3,)), ((3,), (3,)), ((2, 5, 3), (5, 3))])
def test_cross_matches_numpy_bit_for_bit(sa, sb, rng):
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    assert np.array_equal(rm._cross(a, b), np.cross(a, b))


@given(unit_quat)
@settings(max_examples=50, deadline=None)
def test_conjugate_inverts(q):
    ident = rm.qmul(q, rm.qconj(q))
    assert np.allclose(ident, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("order", rm.TAIT_BRYAN_ORDERS)
def test_euler_round_trip_all_orders(order, rng):
    q = random_unit_quats(rng, (500,))
    q[q[:, 0] < 0] *= -1
    e = rm.quat_to_euler(q, order)
    back = rm.euler_to_quat(e.angles, order)
    back[back[:, 0] < 0] *= -1
    assert np.abs(back - q).max() < 1e-9


@pytest.mark.parametrize("order", rm.TAIT_BRYAN_ORDERS)
def test_euler_to_quat_matches_axis_composition(order, rng):
    angles = rng.uniform(-np.pi, np.pi, size=(20, 3))
    for row in angles:
        want = np.array([1.0, 0, 0, 0])
        for axis, ang in zip(order, row):
            unit = np.zeros(3)
            unit["xyz".index(axis)] = 1.0
            want = rm.qmul(want, rm.axis_angle_quat(unit, ang))
        got = rm.euler_to_quat(row, order)
        assert np.allclose(got, want * np.sign(want[0] * got[0] or 1),
                           atol=1e-12)


def test_joint_euler_is_per_joint_quat_to_euler_bit_for_bit(rng):
    orders = [rm.TAIT_BRYAN_ORDERS[j % 6] for j in range(9)]
    q = random_unit_quats(rng, (7, 9))
    q[3, 4] = rm.euler_to_quat([0.3, np.pi / 2, -0.2], orders[4])  # gimbal lock
    got = rm.joint_euler(q, orders)
    want = np.stack([rm.quat_to_euler(q[:, j], orders[j]).angles for j in range(9)], axis=1)
    assert got.tobytes() == want.tobytes()


def test_order_groups_need_one_order_per_joint():
    assert [(o, j.tolist()) for o, j in rm.order_groups(("zyx", "xyz", "zyx"), 3)] == [
        ("xyz", [1]), ("zyx", [0, 2])]
    with pytest.raises(ValueError, match="one Euler order per joint"):
        rm.order_groups(("zyx", "xyz"), 3)


def test_gimbal_lock_representative_round_trips():
    for order in rm.TAIT_BRYAN_ORDERS:
        for sign in (1.0, -1.0):
            angles = np.array([0.3, sign * np.pi / 2, -0.7])
            q = rm.euler_to_quat(angles, order)
            e = rm.quat_to_euler(q, order)
            assert e.singular.all()
            assert e.angles[2] == 0.0
            back = rm.euler_to_quat(e.angles, order)
            assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-9


def _quat_to_matrix_full(q):
    """The full-matrix conversion quat_to_matrix used before its elements
    were formed one at a time."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (yy + zz)
    m[..., 0, 1] = 2 * (xy - wz)
    m[..., 0, 2] = 2 * (xz + wy)
    m[..., 1, 0] = 2 * (xy + wz)
    m[..., 1, 1] = 1 - 2 * (xx + zz)
    m[..., 1, 2] = 2 * (yz - wx)
    m[..., 2, 0] = 2 * (xz - wy)
    m[..., 2, 1] = 2 * (yz + wx)
    m[..., 2, 2] = 1 - 2 * (xx + yy)
    return m


def _quat_to_euler_full(q, order):
    """quat_to_euler as it read all nine elements of the full matrix."""
    i, j, k = ("xyz".index(c) for c in order)
    eps = 1.0 if order in ("xyz", "yzx", "zxy") else -1.0
    m = _quat_to_matrix_full(rm.normalize(q))
    s2 = np.clip(eps * m[..., i, k], -1.0, 1.0)
    a2 = np.arcsin(s2)
    singular = np.sqrt(np.maximum(1.0 - s2 * s2, 0.0)) < rm.GIMBAL_COS_TOL
    a1 = np.arctan2(-eps * m[..., j, k], m[..., k, k])
    a3 = np.arctan2(-eps * m[..., i, j], m[..., i, i])
    a1 = np.where(singular, np.arctan2(np.sign(s2) * m[..., j, i], m[..., j, j]), a1)
    a3 = np.where(singular, 0.0, a3)
    return np.stack([a1, a2, a3], axis=-1), singular


@pytest.mark.parametrize("order", rm.TAIT_BRYAN_ORDERS)
def test_element_kernel_matches_full_matrix_bit_for_bit(order, rng):
    q = rng.normal(size=(400, 4))
    unit = q / np.linalg.norm(q, axis=-1, keepdims=True)
    # middle angles of +-pi/2, exactly and within the gimbal tolerance
    middle = np.pi / 2 * np.where(rng.random(200) < 0.5, 1.0, -1.0) + rng.choice(
        [0.0, 1e-9, -1e-9, 1e-7], size=200)
    locked = rm.euler_to_quat(np.stack([rng.uniform(-np.pi, np.pi, 200), middle,
                                        rng.uniform(-np.pi, np.pi, 200)], axis=-1), order)
    for quats in (q, 3.5 * unit, -unit, locked, -locked):
        assert np.array_equal(rm.quat_to_matrix(quats), _quat_to_matrix_full(quats))
        got = rm.quat_to_euler(quats, order)
        angles, singular = _quat_to_euler_full(quats, order)
        assert np.array_equal(got.angles, angles)
        assert np.array_equal(got.singular, singular)
    assert rm.quat_to_euler(locked, order).singular.any()


def test_expmap_round_trip(rng):
    e = rng.normal(size=(500, 3))
    got = rm.quat_to_expmap(rm.expmap_to_quat(e))
    # representative has angle in [0, pi]
    theta = np.linalg.norm(e, axis=-1, keepdims=True)
    wrapped = np.mod(theta, 2 * np.pi)
    canon = np.where(wrapped > np.pi, (wrapped - 2 * np.pi) / theta,
                     wrapped / theta) * e
    assert np.abs(got - canon).max() < 1e-9


def test_expmap_small_angle_series():
    e = np.array([1e-10, 0, 0])
    q = rm.expmap_to_quat(e)
    assert np.allclose(q, [1, 5e-11, 0, 0], atol=1e-15)


def test_wrap_angle_examples():
    assert rm.wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert rm.wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
    x = np.linspace(-10, 10, 101)
    w = rm.wrap_angle(x)
    assert ((w >= -np.pi) & (w <= np.pi)).all()
    assert np.allclose(np.cos(w), np.cos(x))
    assert np.allclose(np.sin(w), np.sin(x))


def test_angle_distance_shortest_path():
    # the shortest path between two angles across the +-pi seam
    a, b = np.pi - 0.1, -np.pi + 0.1
    assert abs(rm.wrap_angle(a - b)) == pytest.approx(0.2)


def test_fix_continuity_nonnegative_dots(rng):
    q = random_unit_quats(rng, (200,))
    flips = rng.random(200) < 0.5
    q[flips] *= -1
    fixed = rm.fix_continuity(q)
    dots = np.sum(fixed[1:] * fixed[:-1], axis=-1)
    assert (dots >= 0).all()
    # same rotation per frame
    assert np.allclose(np.abs(np.sum(fixed * q, axis=-1)), 1.0, atol=1e-12)
    # idempotent
    assert np.array_equal(rm.fix_continuity(fixed), fixed)


def _fix_continuity_loop(wxyz):
    """The per-frame definition: negate frame t iff its dot with the
    already fixed frame t - 1 is negative."""
    out = np.array(wxyz, dtype=float)
    for t in range(1, out.shape[0]):
        dots = np.sum(out[t] * out[t - 1], axis=-1, keepdims=True)
        out[t] = np.where(dots < 0.0, -out[t], out[t])
    return out


def test_fix_continuity_matches_reference_loop():
    rng = np.random.default_rng(2024)
    for case in range(300):
        frames = (0, 1, 2)[case] if case < 3 else int(rng.integers(0, 16))
        q = rng.normal(size=(frames, int(rng.integers(1, 4)), 4))
        if case % 2:
            q = np.round(q)  # small integers: many exactly zero dots
        q[rng.random(q.shape[:2]) < 0.15] = 0.0
        q[rng.random(q.shape) < 0.05] = np.nan
        q[rng.random(q.shape) < 0.02] = -np.nan
        got, want = rm.fix_continuity(q), _fix_continuity_loop(q)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), case


def test_slerp_constant_angular_velocity(rng):
    a = random_unit_quats(rng, ())
    b = random_unit_quats(rng, ())
    t = np.linspace(0, 1, 11)
    path = np.array([rm.slerp(a, b, ti) for ti in t])
    steps = rm.quat_geodesic_angle(path[:-1], path[1:])
    assert np.allclose(steps, steps[0], atol=1e-9)
    assert np.allclose(path[0], a) or np.allclose(path[0], -a)


def test_quat_mean_recovers_cluster_center(rng):
    center = random_unit_quats(rng, ())
    noise = rng.normal(scale=1e-3, size=(50, 4))
    cluster = center + noise
    cluster /= np.linalg.norm(cluster, axis=-1, keepdims=True)
    signs = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    mean = rm.quat_mean(cluster * signs[:, None])
    assert min(np.abs(mean - center).max(), np.abs(mean + center).max()) < 1e-3


def test_normalize_rejects_degenerate():
    with pytest.raises(rm.DegenerateQuaternionError):
        rm.normalize(np.zeros(4))
