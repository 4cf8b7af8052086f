import dataclasses

import numpy as np
import pytest

from quatmotion import locomotion as lo
from quatmotion import motiondata as md
from quatmotion import rotmath as rm
from quatmotion.kinematics import forward_kinematics

from conftest import random_unit_quats


def test_clip_applies_continuity(rng, gait):
    skel, clip, _ = gait
    rots = clip.rotations.copy()
    flips = rng.random(clip.num_frames) < 0.5
    rots[flips] *= -1
    fixed = md.MotionClip(skel, clip.frame_rate, clip.root_positions.copy(),
                          rots)
    dots = np.sum(fixed.rotations[1:] * fixed.rotations[:-1], axis=-1)
    assert (dots >= 0).all()


def test_clip_shape_validation(gait):
    skel, clip, _ = gait
    with pytest.raises(ValueError):
        md.MotionClip(skel, 25.0, clip.root_positions[:-1],
                      clip.rotations)
    for rate in (0.0, -25.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="frame_rate must be positive and finite"):
            md.MotionClip(skel, rate, clip.root_positions, clip.rotations)


def test_qmc_round_trip(tmp_path, gait):
    skel, clip, _ = gait
    p = tmp_path / "clip.qmc"
    md.save_clip(p, clip)
    back = md.load_clip(p)
    assert back.frame_rate == clip.frame_rate
    assert back.skeleton.names == skel.names
    assert np.abs(back.rotations - clip.rotations).max() < 1e-6
    # float32 storage is stable: writing the loaded clip again is bit-exact
    md.save_clip(p, back)
    again = md.load_clip(p)
    assert np.array_equal(again.rotations, back.rotations)
    assert np.array_equal(again.root_positions, back.root_positions)


def test_qmc_failed_save_keeps_previous(tmp_path, gait):
    skel, clip, _ = gait
    path = tmp_path / "clip.qmc"
    md.save_clip(path, clip)
    before = path.read_bytes()
    bad = clip.slice(0, 5)
    # the rotations fail to convert after the header and root positions are written
    bad.rotations = bad.rotations.astype(object)
    bad.rotations[0, 0, 0] = "x"
    with pytest.raises(ValueError):
        md.save_clip(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clip.qmc"]  # no clip.qmc.tmp


def test_dataset_round_trip(tmp_path, corpus):
    skel, clips = corpus
    md.save_dataset(tmp_path / "ds", clips)
    back = md.load_dataset(tmp_path / "ds")
    assert len(back) == len(clips)
    assert [c.num_frames for c in back] == [c.num_frames for c in clips]


def test_downsample_partitions_frames(gait):
    skel, clip, _ = gait
    parts = md.downsample_all_phases(clip, 4)
    assert len(parts) == 4
    assert sum(p.num_frames for p in parts) == clip.num_frames
    assert parts[0].frame_rate == pytest.approx(clip.frame_rate / 4)
    assert np.array_equal(parts[1].rotations, clip.rotations[1::4])


def test_mirror_is_involution(gait):
    skel, clip, _ = gait
    mirrored = md.mirror(clip, md.SYNTH_SWAP_MAP)
    back = md.mirror(mirrored, md.SYNTH_SWAP_MAP)
    assert np.abs(back.rotations - clip.rotations).max() < 1e-12
    assert np.abs(back.root_positions - clip.root_positions).max() < 1e-12


def test_mirror_matches_reflected_fk(gait):
    skel, clip, _ = gait
    mirrored = md.mirror(clip, md.SYNTH_SWAP_MAP)
    pos = clip.positions()
    mpos = mirrored.positions()
    perm = md._swap_permutation(skel, md.SYNTH_SWAP_MAP)
    reflected = pos[:, perm].copy()
    reflected[..., 0] *= -1
    assert np.abs(mpos - reflected).max() < 1e-9


def test_mirror_rejects_bad_map(gait):
    skel, clip, _ = gait
    with pytest.raises(ValueError):
        md.mirror(clip, {"l_foot": "r_upleg"})


@pytest.mark.parametrize("asymmetric, swap, message", [
    # offsets fail at spine1 (joint 2), topology at l_lowleg (joint 6)
    ("spine1", {"l_upleg": "r_upleg", "l_lowleg": "r_foot"},
     "offsets of 'spine1' and 'spine1' are not mirror images"),
    # spine2 (joint 3) fails both ways, l_foot (joint 7) its offsets
    ("l_foot", dict(md.SYNTH_SWAP_MAP, spine2="head_end"),
     "swap map breaks topology at joint 'spine2'"),
])
def test_swap_map_error_names_first_failing_joint(gait, asymmetric, swap, message):
    skel = gait[0]
    offsets = skel.offsets.copy()
    offsets[skel.names.index(asymmetric), 0] += 0.1
    with pytest.raises(ValueError, match=message):
        md._swap_permutation(dataclasses.replace(skel, offsets=offsets), swap)


def test_rotate_clip_fk_oracle(gait):
    skel, clip, _ = gait
    ang = 1.1
    rot = md.rotate_clip(clip, ang)
    q = rm.axis_angle_quat([0, 1, 0], ang)
    want = np.array([rm.rotate_vector(q, p) for p in clip.positions()[5]])
    assert np.abs(rot.positions()[5] - want).max() < 1e-9


def test_spin_clip_sweeps_yaw(gait):
    skel, clip, _ = gait
    spun = md.spin_clip(clip, revolutions=2.0)
    assert spun.num_frames == clip.num_frames
    # root orientation relative to the original advances uniformly
    rel = rm.qmul(spun.rotations[:, 0], rm.qconj(clip.rotations[:, 0]))
    steps = rm.quat_geodesic_angle(rel[1:], rel[:-1])
    assert np.abs(steps - steps[0]).max() < 1e-6
    assert steps[0] > 0
    # total sweep covers the requested revolutions
    total = steps.sum()
    assert total == pytest.approx(
        2 * np.pi * 2.0 * (1 - 1 / clip.num_frames), rel=0.3)


def test_prune_constant_joints(corpus):
    skel, clips = corpus
    frozen = []
    for c in clips:
        rots = c.rotations.copy()
        rots[:, 2] = [1.0, 0, 0, 0]
        frozen.append(md.MotionClip(skel, c.frame_rate,
                                    c.root_positions.copy(), rots))
    baseline = md.prune_constant_joints(skel, clips)
    pruned = md.prune_constant_joints(skel, frozen)
    assert not pruned.dof_active[2]
    assert pruned.dof_active[0]  # root never pruned
    assert pruned.dof_active[skel.names.index("l_upleg")]
    assert pruned.num_active == baseline.num_active - baseline.dof_active[2]


def test_spline_circle_curvature():
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    r = 2.0
    pts = np.stack([r * np.cos(t), np.zeros_like(t), r * np.sin(t)], axis=1)
    sp = lo.fit_spline(pts, segment_length=0.1)
    # the first segment has no predecessor, so its turn is defined as zero
    assert np.abs(np.abs(sp.curvatures[1:]) - 1 / r).max() < 2e-2
    assert np.abs(np.abs(np.median(sp.curvatures)) - 1 / r) < 2e-3
    chords = np.linalg.norm(np.diff(sp.points, axis=0), axis=1)
    assert np.abs(chords - 0.1).max() < 1e-12


def test_spline_straight_line():
    pts = np.stack([np.linspace(0, 5, 50), np.zeros(50),
                    np.zeros(50)], axis=1)
    sp = lo.fit_spline(pts, segment_length=0.5)
    assert np.abs(sp.curvatures).max() < 1e-12
    assert np.allclose(sp.tangents, [1.0, 0.0])


@pytest.mark.parametrize("length", [0.0, -0.5, float("nan")])
def test_spline_rejects_non_positive_segment_length(length):
    pts = np.stack([np.linspace(0, 5, 50), np.zeros(50), np.zeros(50)], axis=1)
    with pytest.raises(ValueError, match="segment length must be positive"):
        lo.fit_spline(pts, segment_length=length)


def test_gait_contacts_and_frequency(gait):
    skel, clip, feats = gait
    _, _, ref = lo.synth_gait(frequency=1.2, speed=1.0, duration=10, seed=0)
    li = skel.names.index("l_foot")
    ri = skel.names.index("r_foot")
    got = lo.extract_gait_features(clip, li, ri)
    assert not got.degenerate
    for found, truth in ((got.left_contacts, ref.left_contacts),
                         (got.right_contacts, ref.right_contacts)):
        for frame in found:
            assert np.abs(truth - frame).min() <= 1
    mid = slice(20, clip.num_frames - 20)
    assert np.abs(got.frequency[mid].mean() - 1.2) / 1.2 < 0.01
    assert np.abs(got.local_speed[mid].mean() - 1.0) < 0.02


def test_gait_stationary_clip_degenerate(gait):
    skel, clip, _ = gait
    still = md.MotionClip(skel, clip.frame_rate,
                          np.zeros_like(clip.root_positions),
                          np.tile(clip.rotations[0], (clip.num_frames, 1, 1)))
    feats = lo.extract_gait_features(still, skel.names.index("l_foot"),
                                     skel.names.index("r_foot"))
    assert feats.degenerate
    assert len(feats.left_contacts) == 0
    assert np.allclose(feats.local_speed, 0.0)


def test_gait_phase_convention(gait):
    skel, clip, feats = gait
    got = lo.extract_gait_features(clip, skel.names.index("l_foot"),
                                   skel.names.index("r_foot"))
    # phase hits 0 mod 2pi at left contacts, pi at right contacts
    lphase = np.mod(got.phase[got.left_contacts], 2 * np.pi)
    lerr = np.minimum(lphase, 2 * np.pi - lphase)
    rerr = np.abs(np.mod(got.phase[got.right_contacts], 2 * np.pi) - np.pi)
    assert np.median(lerr) < 0.2
    assert np.median(rerr) < 0.2


def test_episode_sampler_uniform_and_seeded(corpus):
    skel, clips = corpus
    s1 = md.EpisodeSampler(clips, episode_length=20, seed=5)
    s2 = md.EpisodeSampler(clips, episode_length=20, seed=5)
    b1 = s1.sample(4)
    b2 = s2.sample(4)
    assert np.array_equal(b1["rotations"], b2["rotations"])
    assert b1["rotations"].shape == (4, 20, skel.num_active, 4)
    assert b1["root_positions"].shape == (4, 20, 3)


def test_episode_sampler_rejects_too_long(corpus):
    skel, clips = corpus
    with pytest.raises(ValueError):
        md.EpisodeSampler(clips, episode_length=10 ** 6)


def _fit_spline_reference(path, segment_length):
    """fit_spline's knots as the per-knot np.allclose loop finds them."""
    points, cur, i = [path[0]], path[0], 0
    while True:
        nxt = None
        while i < len(path) - 1:
            a, b = path[i], path[i + 1]
            d, f = b - a, a - cur
            aa, bb, cc = d @ d, 2.0 * (f @ d), f @ f - segment_length ** 2
            disc = bb * bb - 4.0 * aa * cc
            if aa > 0 and disc >= 0:
                t = (-bb + np.sqrt(disc)) / (2.0 * aa)
                if 0.0 <= t <= 1.0:
                    nxt = a + t * d
                    if np.allclose(nxt, b):
                        i += 1
                    break
            i += 1
        if nxt is None:
            return np.array(points)
        points.append(nxt)
        cur = nxt


def test_fit_spline_knots_match_reference_loop():
    rng = np.random.default_rng(11)
    paths = []
    for _ in range(4):  # seeded wandering walks, as perfbench draws them
        t = np.linspace(0.0, 1.0, 400)
        heading = rng.uniform(0, 2 * np.pi) + rng.uniform(0.5, 1.5) * np.sin(
            2 * np.pi * rng.uniform(0.5, 2.0) * t + rng.uniform(0, 2 * np.pi))
        paths.append((np.cumsum(0.05 * np.stack([np.cos(heading), np.sin(heading)], 1), 0),
                      rng.uniform(0.1, 0.4)))
    # knots on or next to polyline points, where the tolerance test decides
    # whether the march moves past a point: on them (equal spacing), within
    # the relative tolerance only (1e-4 short of them at a 1e4 offset), and
    # a stop-and-go path with repeated points
    line = np.stack([np.arange(60) * 0.25, np.zeros(60)], axis=1)
    paths += [(line, 0.25), (line * 1.0004 + 1e4, 0.25), (np.repeat(line, 3, axis=0), 0.75)]
    # points a hair inside and outside the squared distance 0.98 L^2 that
    # lets a segment be skipped: on a line, and on an arc round the first knot
    band = np.sqrt(0.98) * 0.25 * (1.0 + np.array([-1e-13, 1e-13]))
    paths.append((np.stack([(np.arange(40)[:, None] * 0.25 + np.r_[0.0, band]).ravel(),
                            np.zeros(120)], axis=1), 0.25))
    angle = np.linspace(0.0, 3.0, 30)
    arc = np.repeat(band, 15)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    paths.append((np.concatenate([[[0.0, 0.0]], arc, arc[-1] * np.arange(2, 30)[:, None]]), 0.25))
    # steps of 2 to 4 L, each crossing several circles
    heading = rng.uniform(0, 2 * np.pi, 30)
    steps = rng.uniform(0.5, 1.0, (30, 1)) * np.stack([np.cos(heading), np.sin(heading)], 1)
    paths.append((np.cumsum(np.concatenate([[[0.0, 0.0]], steps]), axis=0), 0.25))
    # a path that doubles back inside the circle a few times, then leaves
    t = np.linspace(0.0, 6 * np.pi, 90)
    wiggle = 0.25 * np.stack([0.6 * np.sin(t), 0.1 * (1.0 - np.cos(t))], axis=1)
    paths.append((np.concatenate([wiggle, wiggle[-1] + np.linspace(0, 3, 40)[:, None] * [1.0, 0.5]]),
                  0.25))
    for path, length in paths:
        got = lo.fit_spline(np.stack([path[:, 0], np.zeros(len(path)), path[:, 1]], 1), length)
        want = _fit_spline_reference(path, length)
        assert got.points.shape == want.shape
        assert got.points.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [[25], [25, 40], list(range(51))],
                         ids=["one-row", "two-rows", "every-row"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spline_rejects_non_finite_points(rows, value):
    # a NaN row used to cut a straight 20-segment path to 7 segments
    pts = np.stack([np.linspace(0, 5, 51), np.zeros(51), np.zeros(51)], 1)
    assert lo.fit_spline(pts, segment_length=0.25).num_segments == 20
    pts[rows, 2] = value
    with pytest.raises(ValueError, match=f"spline point {rows[0]} is not finite"):
        lo.fit_spline(pts, segment_length=0.25)


@pytest.mark.parametrize("shape", [(10,), (10, 1), (10, 4), (2, 10, 3)])
def test_spline_rejects_points_of_other_shape(shape):
    with pytest.raises(ValueError, match=r"\(N, 2\) or \(N, 3\)"):
        lo.fit_spline(np.zeros(shape), segment_length=0.5)
