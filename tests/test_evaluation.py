import numpy as np
import pytest

from quatmotion import evaluation as ev
from quatmotion import motiondata as md
from quatmotion import rotmath as rm
from quatmotion.locomotion import make_synth_corpus

from conftest import random_unit_quats


def test_zero_velocity_repeats_last_frame(rng):
    prefix = random_unit_quats(rng, (6, 3))
    pred = ev.baseline_zero_velocity(prefix, 4)
    assert pred.shape == (4, 3, 4)
    assert np.array_equal(pred, np.repeat(prefix[-1][None], 4, axis=0))


def test_running_average_matches_slerp_midpoint(rng):
    # for two nearby quats the window-2 average is the slerp midpoint
    a = np.array([1.0, 0, 0, 0])
    b = rm.slerp(a, random_unit_quats(rng, ()), 0.01)
    prefix = np.stack([a, b])[:, None, :]
    avg = ev.baseline_running_average(prefix, 1, window=2)[0, 0]
    mid = rm.slerp(a, b, 0.5)
    assert np.abs(avg - mid).max() < 1e-6


def test_protocol_descriptors():
    std = ev.EvalProtocol.standard()
    prop = ev.EvalProtocol.proposed()
    assert std.samples_per_sequence == 4
    assert prop.samples_per_sequence == 128
    assert [ev.horizon_frames(ms, 25.0) for ms in std.horizons_ms] == [2, 4, 8, 10]


@pytest.mark.parametrize("field,value,message", [
    ("samples_per_sequence", 0, "samples_per_sequence must be at least 1, got 0"),
    ("samples_per_sequence", -4, "samples_per_sequence must be at least 1, got -4"),
    ("conditioning_frames", 0, "conditioning_frames must be at least 1, got 0"),
    ("horizons_ms", (), "at least one horizon")])
def test_protocol_rejects_counts_below_one(field, value, message):
    # S=0 reported nothing, so overall_mean was NaN; no horizon failed in max()
    with pytest.raises(ValueError, match=message):
        ev.EvalProtocol(**{field: value})


@pytest.mark.parametrize("ms,rate", [(1.0, 25.0), (19.9, 25.0), (20.0, 25.0), (400.0, 1e308),
                                     (float("nan"), 25.0), (-80.0, 25.0)])
def test_horizon_frames_rejects_no_whole_frame(ms, rate):
    with pytest.raises(ValueError, match="finite count of at least 1"):
        ev.horizon_frames(ms, rate)


def test_horizon_frames_rounds_to_nearest_frame():
    # 30 ms at 25 Hz is 0.75 frames, 60 ms 1.5 (halves round to even)
    assert [ev.horizon_frames(ms, 25.0) for ms in (30.0, 60.0, 100.0, 80)] == [1, 2, 2, 2]
    assert ev.horizon_frames(400, 12.5) == 5


def test_run_protocol_takes_horizons_from_each_clip(corpus):
    skel, clips = corpus
    slow = md.MotionClip(skel, 12.5, clips[0].root_positions[::2], clips[0].rotations[::2],
                         action="slow")
    asked = []

    def predict(prefix, horizon):
        asked.append(horizon)
        return ev.baseline_zero_velocity(prefix, horizon)

    rep = ev.run_protocol(predict, [slow, clips[1]], ev.EvalProtocol.standard())
    # 400 ms is 5 frames at 12.5 Hz and 10 at 25 Hz
    assert asked == [5] * 4 + [10] * 4
    assert sorted({ms for _, ms in rep.per_sample}) == [80, 160, 320, 400]


def test_run_protocol_names_clip_without_whole_horizon(corpus):
    skel, clips = corpus
    fast = md.MotionClip(skel, 1e308, clips[0].root_positions, clips[0].rotations, action="fast")
    asked = []
    with pytest.raises(ValueError, match=r"clip 1 \('fast'\)"):
        ev.run_protocol(lambda p, h: asked.append(h), [clips[0], fast],
                        ev.EvalProtocol.standard())
    assert asked == []  # checked before any prediction


def test_run_protocol_deterministic(corpus):
    skel, clips = corpus
    proto = ev.EvalProtocol.standard(seed=3)
    r1 = ev.run_protocol(ev.baseline_zero_velocity, clips, proto)
    r2 = ev.run_protocol(ev.baseline_zero_velocity, clips, proto)
    assert r1.per_sample == r2.per_sample


def test_run_protocol_zero_on_constant_clip(corpus):
    skel, clips = corpus
    const = md.MotionClip(skel, 25.0, np.zeros((80, 3)),
                          np.tile(clips[0].rotations[5], (80, 1, 1)))
    rep = ev.run_protocol(ev.baseline_zero_velocity, [const],
                          ev.EvalProtocol.standard())
    assert rep.overall_mean(80) == pytest.approx(0.0, abs=1e-9)


def test_run_protocol_skips_short_clips(corpus):
    skel, clips = corpus
    short = clips[0].slice(0, 5)
    with pytest.warns(UserWarning):
        rep = ev.run_protocol(ev.baseline_zero_velocity,
                              [short, clips[0]], ev.EvalProtocol.standard())
    assert rep.skipped_clips == 1
    with pytest.raises(ValueError, match="needs 20 frames"):  # 10 + 400 ms at 25 Hz
        ev.run_protocol(ev.baseline_zero_velocity, [short, short], ev.EvalProtocol.standard())


def test_report_csv(tmp_path, corpus):
    skel, clips = corpus
    rep = ev.run_protocol(ev.baseline_zero_velocity, clips,
                          ev.EvalProtocol.standard())
    p = tmp_path / "report.csv"
    rep.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert len(lines) > 1
    assert "mean_error" in lines[0]


def test_bootstrap_ci_properties(rng):
    lo, hi = ev.bootstrap_ci(np.full(20, 3.3))
    assert lo == hi == pytest.approx(3.3)
    x = rng.normal(size=300)
    lo, hi = ev.bootstrap_ci(x, quantiles=(2.5, 97.5))
    assert lo <= x.mean() <= hi
    width95 = hi - lo
    lo, hi = ev.bootstrap_ci(x)
    assert hi - lo < width95
    with pytest.raises(ValueError):
        ev.bootstrap_ci(np.array([]))


def test_tail_mass():
    errs = np.arange(100.0)
    assert ev.tail_mass(errs, np.percentile(errs, 99)) == pytest.approx(0.01)
    assert ev.tail_mass(errs, 1e9) == 0.0


def test_detect_plateau():
    assert ev.detect_plateau([1.0, 1.0, 1.0]) == 0
    assert ev.detect_plateau([1.0, 0.5, 0.3, 0.29, 0.285]) >= 2


# run_protocol means recorded at e5c458b (before streaming conv free-run and
# the stacked Euler conversion), per horizon (80, 160, 320, 400) ms
PROTOCOL_GOLDEN = {
    ("gru", 4): [6.796458852891873, 8.554118087406298, 7.814452910491588, 7.823108098298169],
    ("conv", 4): [7.7217515344376535, 8.587629853075988, 8.059069926907194, 6.730457406472054],
    ("zero_velocity", 4): [0.15190522896419123, 0.25309186616966617, 0.3027536414183851,
                           0.3321602603976215],
    ("running_average", 4): [0.27288604144118966, 0.3647368063044911, 0.3588859867621983,
                             0.33016579892512715],
    ("gru", 128): [6.882234755848538, 8.210834086063453, 7.743127565903558, 8.091419733509344],
    ("conv", 128): [7.7286278750763096, 8.387057666241297, 8.04513166572668, 6.73468856423143],
    ("zero_velocity", 128): [0.13663279912369708, 0.263320503619279, 0.4435264372332065,
                             0.4885202509986709],
    ("running_average", 128): [0.2248332500013771, 0.33553298397008063, 0.4724215615011552,
                               0.4913269708611272],
}


def test_protocol_means_match_golden():
    from quatmotion import models as mo
    from quatmotion import training as tr

    skel, clips = make_synth_corpus(1, seed=21, duration=8.0)
    a = skel.num_active
    gru = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a), seed=0)
    conv = mo.PoseNetwork(mo.PoseNetworkConfig.desk(a, backbone="convolutional"), seed=0)
    predictors = {"gru": (lambda p, h: tr.free_run_predict(gru, p, h), 10),
                  "conv": (lambda p, h: tr.free_run_predict(conv, p, h), 32),
                  "zero_velocity": (ev.baseline_zero_velocity, 10),
                  "running_average": (ev.baseline_running_average, 10)}
    for (name, s), want in PROTOCOL_GOLDEN.items():
        predict, n = predictors[name]
        proto = ev.EvalProtocol(samples_per_sequence=s, seed=5, conditioning_frames=n)
        rep = ev.run_protocol(predict, clips, proto)
        got = [rep.overall_mean(ms) for ms in proto.horizons_ms]
        if name in ("gru", "conv"):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0, err_msg=name)
        else:
            assert got == want, name
