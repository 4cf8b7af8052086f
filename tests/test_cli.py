import argparse
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from quatmotion import cli
from quatmotion import locomotion as lo
from quatmotion import motiondata as md
from quatmotion.kinematics import Skeleton

from conftest import SPINE_BEND, freeze_joint


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    skel, clips = lo.make_synth_corpus(2, seed=11, duration=5)
    md.save_dataset(root / "ds", clips)
    return root / "ds"


def run(args):
    return cli.main([str(a) for a in args])


def test_usage_error_exit_code():
    assert run(["train-pose", "--out", "/tmp/x"]) == 1


def test_unknown_command_exit_code(capsys):
    assert run(["frobnicate"]) == 1


def test_convert_writes_manifest_and_clips(tmp_path, dataset_dir):
    out = tmp_path / "out"
    code = run(["convert", "--in", dataset_dir, "--out", out,
                "--downsample", "2", "--seed", "3"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "version" in manifest
    clips = md.load_dataset(out)
    assert len(clips) == 4  # 2 clips x 2 phases


def test_convert_missing_input(tmp_path):
    assert run(["convert", "--in", tmp_path / "nope", "--out",
                tmp_path / "o"]) == 1


def test_train_predict_evaluate_pipeline(tmp_path, dataset_dir):
    out = tmp_path / "run"
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(
        "epochs = 2\n"
        "batch_size = 2\n"
        "conditioning_frames = 6\n"
        "prediction_frames = 2\n"
        "seed = 5\n"
        "# comment line\n"
        f"dataset = {dataset_dir}\n")
    assert run(["train-pose", "--config", cfgfile, "--out", out]) == 0
    ck = out / "pose.ckpt"
    assert ck.exists()
    assert (out / "training_log.csv").exists()

    pred = tmp_path / "pred"
    assert run(["predict", "--checkpoint", ck, "--dataset", dataset_dir,
                "--horizon-ms", "80", "--conditioning-frames", "6",
                "--out", pred]) == 0
    assert (pred / "metrics.csv").exists()
    assert (pred / "pred_00000.qmc").exists()

    ev_out = tmp_path / "eval"
    assert run(["evaluate", "--checkpoint", ck, "--dataset", dataset_dir,
                "--protocol", "S=2", "--conditioning-frames", "6",
                "--out", ev_out]) == 0
    assert (ev_out / "report.csv").exists()


def test_resume_training(tmp_path, dataset_dir):
    out = tmp_path / "run"
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text("epochs = 2\nbatch_size = 2\nconditioning_frames = 6\n"
                       "prediction_frames = 2\nseed = 5\n"
                       f"dataset = {dataset_dir}\n")
    assert run(["train-pose", "--config", cfgfile, "--out", out]) == 0
    cfgfile.write_text("epochs = 3\nbatch_size = 2\nconditioning_frames = 6\n"
                       "prediction_frames = 2\nseed = 5\n"
                       f"dataset = {dataset_dir}\n")
    # resume keeps the stored config, so epochs stay at 2 and this no-ops
    assert run(["train-pose", "--resume", out / "pose.ckpt",
                "--dataset", dataset_dir, "--out", tmp_path / "run2"]) == 0


def test_resume_takes_its_configuration_from_the_checkpoint(tmp_path, dataset_dir, capsys):
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text("epochs = 2\nbatch_size = 2\nconditioning_frames = 6\n"
                       f"prediction_frames = 2\nseed = 7\ndataset = {dataset_dir}\n")
    assert run(["train-pose", "--config", cfgfile, "--out", tmp_path / "run"]) == 0
    capsys.readouterr()
    ck = tmp_path / "run" / "pose.ckpt"
    cfgfile.write_text("epochs = 4\n")
    assert run(["train-pose", "--resume", ck, "--config", cfgfile,
                "--dataset", dataset_dir, "--out", tmp_path / "run2"]) == 1
    err = capsys.readouterr().err
    assert "--config" in err and "--resume" in err and "Traceback" not in err
    assert not (tmp_path / "run2" / "pose.ckpt").exists()

    # a finished run: nothing to train and no checkpoint written or named
    assert run(["train-pose", "--resume", ck, "--dataset", dataset_dir,
                "--out", tmp_path / "run3"]) == 0
    out = capsys.readouterr().out
    assert "epoch 2 of 2" in out and "checkpoint" not in out
    assert not (tmp_path / "run3" / "pose.ckpt").exists()
    assert json.loads((tmp_path / "run3" / "manifest.json").read_text())["seed"] == 7


@pytest.mark.parametrize("command,lines,values", [
    ("train-pose", "epochs = 1\nlr0 = 0.002\nbatch_size = 2\nconditioning_frames = 6\n"
                   "prediction_frames = 2\nloss = euler_l1\nseed = 3\nclip_norm = 0.1\n",
     {"epochs": 1, "lr0": 0.002, "batch_size": 2, "conditioning_frames": 6,
      "prediction_frames": 2, "loss": "euler_l1", "seed": 3}),
    ("train-pace", "epochs = 1\nlr0 = 0.002\nseed = 3\nlr_decay = 0.999\n",
     {"epochs": 1, "lr0": 0.002, "seed": 3}),
], ids=["train-pose", "train-pace"])
def test_training_manifest_records_the_resolved_train_config(tmp_path, dataset_dir,
                                                              command, lines, values):
    # the config file's values over the defaults; a fixed key at its value
    # is accepted and dropped; a pace run records only the fields it reads
    from quatmotion import models as mo, training as tr
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text(f"{lines}dataset = {dataset_dir}\n")
    assert run([command, "--config", cfgfile, "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    if command == "train-pose":
        assert manifest["train_config"] == asdict(tr.TrainConfig(**values))
    else:
        assert manifest["train_config"] == asdict(tr.PaceTrainConfig(**values)) == values
        ck = mo.load_checkpoint(tmp_path / "o" / "pace.ckpt")
        assert ck["meta"]["train_config"] == values


def test_checkpoint_storing_the_fixed_train_keys_resumes_exactly(tmp_path, dataset_dir):
    # checkpoints written while the four constants were TrainConfig fields
    # store them in meta.train_config, at their fixed values
    from quatmotion import models as mo, training as tr
    cfg = "batch_size = 2\nconditioning_frames = 6\nprediction_frames = 2\nseed = 5\n"
    (tmp_path / "half.cfg").write_text(f"epochs = 2\n{cfg}")
    (tmp_path / "full.cfg").write_text(f"epochs = 4\n{cfg}")
    for name in ("half", "full"):
        assert run(["train-pose", "--config", tmp_path / f"{name}.cfg", "--dataset", dataset_dir,
                    "--out", tmp_path / name]) == 0
    ck = mo.load_checkpoint(tmp_path / "half" / "pose.ckpt")
    assert not ck["meta"]["train_config"].keys() & tr.FIXED.keys()
    ck["meta"]["train_config"].update(tr.FIXED, epochs=4)
    old = tmp_path / "old.ckpt"
    mo.save_checkpoint(old, ck["kind"], ck["config"], ck["arrays"], ck["meta"])
    assert run(["train-pose", "--resume", old, "--dataset", dataset_dir,
                "--out", tmp_path / "resumed"]) == 0
    got = mo.load_checkpoint(tmp_path / "resumed" / "pose.ckpt")["arrays"]
    want = mo.load_checkpoint(tmp_path / "full" / "pose.ckpt")["arrays"]
    assert got.keys() == want.keys()
    for k in want:
        assert np.array_equal(got[k], want[k]), k
    # the resumed run's manifest records the checkpoint's config, less the fixed keys
    resumed, full = (json.loads((tmp_path / name / "manifest.json").read_text())
                     for name in ("resumed", "full"))
    assert resumed["train_config"] == full["train_config"]


def test_stored_train_config_off_its_fixed_value_is_data_error(tmp_path, dataset_dir,
                                                                training_checkpoint, capsys):
    from quatmotion import models as mo
    ck = mo.load_checkpoint(training_checkpoint)
    ck["meta"]["train_config"]["lr_decay"] = 0.99
    bad = tmp_path / "bad.ckpt"
    mo.save_checkpoint(bad, ck["kind"], ck["config"], ck["arrays"], ck["meta"])
    assert run(["train-pose", "--resume", bad, "--dataset", dataset_dir,
                "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "bad.ckpt" in err and "lr_decay" in err and "0.99" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "pose.ckpt").exists()


def test_resume_onto_old_log_is_data_error(tmp_path, dataset_dir, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "train.cfg"
    cfgfile.write_text("epochs = 1\nbatch_size = 2\nconditioning_frames = 6\n"
                       "prediction_frames = 2\n"
                       f"dataset = {dataset_dir}\n")
    assert run(["train-pose", "--config", cfgfile, "--out", out]) == 0
    log = out / "training_log.csv"
    log.write_text("epoch,lr,p,train_loss,val_position_loss,val_velocity_loss,wall_seconds\n")
    assert run(["train-pose", "--resume", out / "pose.ckpt",
                "--dataset", dataset_dir, "--out", out]) == 2
    assert "training_log.csv" in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["6", "half"])
def test_truncated_clip_is_data_error(tmp_path, dataset_dir, capsys, cut):
    blob = (dataset_dir / "clip_00000.qmc").read_bytes()
    bad = tmp_path / "bad.qmc"
    bad.write_bytes(blob[:6] if cut == "6" else blob[:len(blob) // 2])
    assert run(["train-pose", "--dataset", bad, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "bad.qmc" in err and "Traceback" not in err


@pytest.mark.parametrize("cut", ["6", "half"])
def test_truncated_checkpoint_is_data_error(tmp_path, dataset_dir, capsys, cut):
    from quatmotion import models as mo
    skel = md.load_dataset(dataset_dir)[0].skeleton
    cfg = mo.PoseNetworkConfig.desk(skel.num_active, hidden=8)
    good = tmp_path / "good.ckpt"
    mo.save_checkpoint(good, "pose", asdict(cfg), mo.PoseNetwork(cfg).param_arrays())
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:6] if cut == "6" else blob[:len(blob) // 2])
    for args in (["predict", "--checkpoint", bad, "--dataset", dataset_dir],
                 ["evaluate", "--checkpoint", bad, "--dataset", dataset_dir],
                 ["train-pose", "--resume", bad, "--dataset", dataset_dir]):
        assert run(args + ["--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "bad.ckpt" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def generate_inputs(tmp_path_factory, dataset_dir):
    """Valid pose and pace checkpoints, an init clip and a spline CSV."""
    from quatmotion import models as mo
    root = tmp_path_factory.mktemp("gen_inputs")
    skel = md.load_dataset(dataset_dir)[0].skeleton
    cfg = mo.PoseNetworkConfig.desk(skel.num_active, hidden=8)
    mo.save_checkpoint(root / "pose.ckpt", "pose", asdict(cfg),
                       mo.PoseNetwork(cfg).param_arrays())
    pace = lo.PaceNetworkConfig()
    mo.save_checkpoint(root / "pace.ckpt", "pace", asdict(pace),
                       lo.PaceNetwork(pace).param_arrays())
    np.savetxt(root / "way.csv", np.zeros((4, 3)), delimiter=",")
    return root


@pytest.mark.parametrize("command,flag", [
    ("predict", "--checkpoint"), ("train-pose", "--resume"),
    ("generate", "--pose-checkpoint"), ("generate", "--pace-checkpoint"),
    ("generate", "--spline"), ("convert", "--mirror")])
def test_missing_input_file_is_usage_error(tmp_path, dataset_dir, generate_inputs,
                                           capsys, command, flag):
    valid = {
        "predict": {"--checkpoint": generate_inputs / "pose.ckpt",
                    "--dataset": dataset_dir},
        "train-pose": {"--dataset": dataset_dir},
        "generate": {"--pose-checkpoint": generate_inputs / "pose.ckpt",
                     "--pace-checkpoint": generate_inputs / "pace.ckpt",
                     "--spline": generate_inputs / "way.csv",
                     "--init-clip": dataset_dir / "clip_00000.qmc"},
        "convert": {"--in": dataset_dir},
    }[command]
    args = {**valid, flag: tmp_path / "missing.file", "--out": tmp_path / "o"}
    assert run([command] + [a for kv in args.items() for a in kv]) == 1
    err = capsys.readouterr().err
    assert "missing.file" in err and "Traceback" not in err


@pytest.mark.parametrize("header", [b"\xff{}", b'{"num_frames": 1}', b"[1, 2]"])
def test_corrupt_clip_header_is_data_error(tmp_path, capsys, header):
    import struct
    bad = tmp_path / "bad.qmc"
    bad.write_bytes(md.QMC_MAGIC + struct.pack("<I", len(header)) + header)
    assert run(["baseline", "--kind", "zerovel", "--dataset", bad,
                "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "bad.qmc" in err and "Traceback" not in err


def test_baseline_command(tmp_path, dataset_dir):
    out = tmp_path / "base"
    assert run(["baseline", "--kind", "zerovel", "--dataset", dataset_dir,
                "--out", out]) == 0
    assert (out / "report.csv").exists()
    assert run(["baseline", "--kind", "nope", "--dataset", dataset_dir,
                "--out", tmp_path / "b2"]) == 1


def test_bad_config_key(tmp_path, dataset_dir):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"frobnicate = 1\ndataset = {dataset_dir}\n")
    assert run(["train-pose", "--config", cfgfile,
                "--out", tmp_path / "o"]) == 1


def test_train_pace_and_generate(tmp_path):
    data = tmp_path / "gaits"
    skel, clips = lo.make_synth_corpus(2, seed=1, duration=8)
    md.save_dataset(data, clips)
    pace_out = tmp_path / "pace"
    cfgfile = tmp_path / "pace.cfg"
    cfgfile.write_text(f"epochs = 2\nseed = 0\ndataset = {data}\n")
    assert run(["train-pace", "--config", cfgfile, "--out", pace_out]) == 0
    pace_ck = pace_out / "pace.ckpt"
    assert pace_ck.exists()
    from quatmotion import models as mo
    assert mo.load_checkpoint(pace_ck)["config"] == asdict(lo.PaceNetworkConfig())

    pose_out = tmp_path / "pose"
    cfg2 = tmp_path / "pose.cfg"
    cfg2.write_text("epochs = 1\nbatch_size = 2\nconditioning_frames = 6\n"
                    "prediction_frames = 2\nseed = 0\n"
                    "include_controls = true\n"
                    f"dataset = {data}\n")
    # pose model for generation needs controls+translations; train via API
    from quatmotion import models as mo, training as tr
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(
        skel.num_active, hidden=16, include_controls=True,
        include_translations=True), seed=0)
    tcfg = tr.TrainConfig(epochs=1, batch_size=2, conditioning_frames=6,
                          prediction_frames=2, seed=0)
    tr.train_pose(net, clips, skel, tcfg)
    os.makedirs(pose_out, exist_ok=True)
    tr.save_pose_checkpoint(pose_out / "pose.ckpt", net, skel, tcfg, 1,
                            __import__("quatmotion.optim",
                                       fromlist=["AdamState"]).AdamState(),
                            {"sampler": {}, "rollout": {}})

    spline_csv = tmp_path / "way.csv"
    pts = np.stack([np.linspace(0, 3, 30), np.zeros(30),
                    np.linspace(0, 1, 30)], axis=1)
    np.savetxt(spline_csv, pts, delimiter=",")
    md.save_clip(tmp_path / "init.qmc", clips[0].slice(0, 12))
    gen = tmp_path / "gen"
    assert run(["generate", "--pose-checkpoint", pose_out / "pose.ckpt",
                "--pace-checkpoint", pace_ck,
                "--spline", spline_csv, "--init-clip", tmp_path / "init.qmc",
                "--frames", "30", "--out", gen]) == 0
    clip = md.load_clip(gen / "generated.qmc")
    assert clip.num_frames == 30


@pytest.fixture(scope="module")
def generate_args(generate_inputs, dataset_dir):
    """generate's inputs with a pose checkpoint that can drive generation
    (controls and translations)."""
    from quatmotion import models as mo
    skel = md.load_dataset(dataset_dir)[0].skeleton
    cfg = mo.PoseNetworkConfig.desk(skel.num_active, hidden=8, include_controls=True,
                                    include_translations=True)
    mo.save_checkpoint(generate_inputs / "walker.ckpt", "pose", asdict(cfg),
                       mo.PoseNetwork(cfg).param_arrays())
    np.savetxt(generate_inputs / "line.csv",
               np.stack([np.linspace(0, 3, 30), np.zeros(30), np.zeros(30)], 1), delimiter=",")
    return ["generate", "--pose-checkpoint", generate_inputs / "walker.ckpt",
            "--pace-checkpoint", generate_inputs / "pace.ckpt",
            "--spline", generate_inputs / "line.csv",
            "--init-clip", dataset_dir / "clip_00000.qmc"]


@pytest.mark.parametrize("flag,value", [("--frames", "0"), ("--frames", "-3"),
                                        ("--segment-length", "0"), ("--segment-length", "nan")])
def test_generate_bad_number_option_is_usage_error(tmp_path, generate_args, capsys,
                                                   flag, value):
    assert run(generate_args + ["--frames", "5", flag, value, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


# each subcommand's parser, by name, as build_parser declares them
SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
NUMERIC_OPTIONS = [(name, action.option_strings[0])
                   for name, sub in SUBCOMMANDS.items() for action in sub._actions
                   if action.type is not None]
OUT_COMMANDS = [name for name, sub in SUBCOMMANDS.items()
                if any("--out" in action.option_strings for action in sub._actions)]


def test_readme_command_lines_parse():
    # each documented command line, continuations joined, is one the
    # parser takes, and every subcommand has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("quatmotion ")]
    assert {shlex.split(line)[1] for line in lines} == set(SUBCOMMANDS)
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README.md documents a command line the parser refuses: {line}")


class _SetupSeen(Exception):
    pass


def test_readme_lists_the_config_keys_each_training_command_reads(tmp_path, monkeypatch):
    # README's bullet for each training command lists the keys its config
    # accepts: dataset, the command's own keys, the fields of the training
    # config its run builds and the fixed keys, the last at the values they
    # must hold
    from dataclasses import fields
    from quatmotion import training as tr
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for item in ("train-pose", "train-pace", "fixed keys"):
        text = re.search(rf"^- `?{item}`?[^:]*:(.*?)\n(?!  )", readme, re.M | re.S).group(1)
        documented[item] = dict(re.findall(r"`(\w+)(?: = ([^`]+))?`", text))
    assert {k: float(v) for k, v in documented.pop("fixed keys").items()} == tr.FIXED

    def setup(args, config_cls, **keys):
        seen[args.command] = {"dataset", *keys} | {f.name for f in fields(config_cls)}
        raise _SetupSeen

    seen = {}
    monkeypatch.setattr(cli, "_train_setup", setup)
    for command in documented:
        with pytest.raises(_SetupSeen):
            run([command, "--out", tmp_path / command])
        assert set(documented[command]) == seen[command], command


@pytest.fixture(scope="module")
def valid_args(tmp_path_factory, dataset_dir, training_checkpoint, generate_args):
    """A command line that runs each subcommand taking --out, less --out."""
    root = tmp_path_factory.mktemp("cfg")
    (root / "pose.cfg").write_text("epochs = 1\nbatch_size = 2\nconditioning_frames = 6\n"
                                   "prediction_frames = 2\n")
    (root / "pace.cfg").write_text("epochs = 1\n")
    model = ["--checkpoint", training_checkpoint, "--dataset", dataset_dir,
             "--conditioning-frames", "6"]
    return {"convert": ["--in", dataset_dir],
            "train-pose": ["--config", root / "pose.cfg", "--dataset", dataset_dir],
            "train-pace": ["--config", root / "pace.cfg", "--dataset", dataset_dir],
            "predict": model + ["--horizon-ms", "80"],
            "generate": generate_args[1:] + ["--frames", "5"],
            "evaluate": model + ["--protocol", "S=1"],
            "baseline": ["--kind", "zerovel", "--dataset", dataset_dir]}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command,flag", NUMERIC_OPTIONS)
def test_numeric_option_is_used_or_refused_by_name(tmp_path, valid_args, capsys,
                                                   command, flag, value):
    # every option argparse converts: a value outside the type's declared
    # range is a usage error naming the option; any other value runs
    parse = next(a.type for a in SUBCOMMANDS[command]._actions if flag in a.option_strings)
    try:
        parse(value)
        refused = False
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        refused = True
    code = run([command, *valid_args[command], f"{flag}={value}", "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert "Traceback" not in err and code in (0, 1, 2, 3)
    if refused:
        assert code == 1 and f"argument {flag}:" in err


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_below_a_regular_file_is_usage_error(tmp_path, valid_args, capsys, command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    assert run([command, *valid_args[command], "--out", out]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["convert", "train-pose"])
def test_dataset_of_two_skeletons_is_data_error(tmp_path, capsys, command):
    clips = [lo.synth_gait(n_joints=10, duration=4)[1], lo.synth_gait(n_joints=8, duration=4)[1]]
    md.save_dataset(tmp_path / "mixed", clips)
    args = {"convert": ["--in", tmp_path / "mixed", "--prune-tol", "1e-4"],
            "train-pose": ["--dataset", tmp_path / "mixed"]}[command]
    assert run([command, *args, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "clip 1" in err and "Traceback" not in err


@pytest.mark.parametrize("command,args,message", [
    ("convert", ["--downsample", "1000"], "factor exceeds frame count"),
    ("baseline", ["--kind", "zerovel", "--conditioning-frames", "100000"], "100010 frames"),
    ("predict", ["--conditioning-frames", "100000"], "no clip has"),
])
def test_clips_too_short_for_the_command_is_data_error(tmp_path, dataset_dir, training_checkpoint,
                                                       capsys, command, args, message):
    data = {"convert": ["--in", dataset_dir], "baseline": ["--dataset", dataset_dir],
            "predict": ["--checkpoint", training_checkpoint, "--dataset", dataset_dir]}[command]
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # refused before any clip is skipped
        assert run([command, *data, *args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_generate_empty_init_clip_is_data_error(tmp_path, generate_args, dataset_dir, capsys):
    md.save_clip(tmp_path / "empty.qmc", md.load_clip(dataset_dir / "clip_00000.qmc").slice(0, 0))
    args = generate_args[:-1] + [tmp_path / "empty.qmc", "--frames", "5"]
    assert run(args + ["--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "init clip has no frames" in err and "Traceback" not in err
    assert run(generate_args + ["--frames", "5", "--out", tmp_path / "ok"]) == 0


@pytest.fixture(scope="module")
def training_checkpoint(tmp_path_factory, dataset_dir):
    """A resumable pose checkpoint of a desk GRU."""
    from quatmotion import models as mo, training as tr
    from quatmotion.optim import AdamState
    skel = md.load_dataset(dataset_dir)[0].skeleton
    path = tmp_path_factory.mktemp("train_ck") / "pose.ckpt"
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=8))
    zeros = {k: np.zeros_like(v) for k, v in net.param_arrays().items()}
    tr.save_pose_checkpoint(path, net, skel, tr.TrainConfig(conditioning_frames=6,
                                                            prediction_frames=2),
                            1, AdamState(1, zeros, dict(zeros)),
                            {"sampler": np.random.default_rng(0).bit_generator.state,
                             "rollout": np.random.default_rng(1).bit_generator.state})
    return path


def _rename_hidden(ck):
    ck["config"]["hiddenx"] = ck["config"].pop("hidden")


def _sideways_mode(ck):
    ck["config"]["mode"] = "sideways"


def _bad_train_config(ck):
    ck["meta"]["train_config"]["reg_weight"] = 5.0


def _sideways_variant(ck):
    ck["config"]["variant"] = "sideways"


def _negative_delay(ck):
    ck["config"]["delay"] = -1


def _fractional_delay(ck):
    ck["config"]["delay"] = 2.5


def _filter_width_3(ck):
    ck["config"]["filter_width"] = 3


def _conv_layers_4(ck):
    ck["config"]["conv_layers"] = 4


def _layers_3(ck):
    ck["config"]["layers"] = 3


def _drop_head_w(ck):
    del ck["arrays"]["head.w"]


def _short_head_w(ck):
    ck["arrays"]["head.w"] = ck["arrays"]["head.w"][:-1]


def _drop_adam_v(ck):
    del ck["arrays"]["adam.v.head.b"]


def _short_adam_m(ck):
    ck["arrays"]["adam.m.head.w"] = ck["arrays"]["adam.m.head.w"][:-1]


def _adam_nope(ck):
    ck["arrays"]["adam.m.nope"] = ck["arrays"]["adam.v.nope"] = np.zeros(3)


@pytest.mark.parametrize("command,flag,edit", [
    ("predict", "--checkpoint", _rename_hidden),
    ("predict", "--checkpoint", _sideways_mode),
    ("evaluate", "--checkpoint", _rename_hidden),
    ("generate", "--pose-checkpoint", _sideways_mode),
    ("generate", "--pace-checkpoint", _sideways_variant),
    ("generate", "--pace-checkpoint", _negative_delay),
    ("generate", "--pace-checkpoint", _fractional_delay),
    ("train-pose", "--resume", _rename_hidden),
    ("train-pose", "--resume", _bad_train_config),
    ("predict", "--checkpoint", _filter_width_3),
    ("evaluate", "--checkpoint", _conv_layers_4),
    ("predict", "--checkpoint", _layers_3),
    ("train-pose", "--resume", _layers_3),
    ("predict", "--checkpoint", _drop_head_w),
    ("evaluate", "--checkpoint", _short_head_w),
    ("generate", "--pace-checkpoint", _drop_head_w),
    ("generate", "--pace-checkpoint", _short_head_w),
    ("train-pose", "--resume", _short_head_w),
    ("train-pose", "--resume", _drop_adam_v),
    ("train-pose", "--resume", _short_adam_m),
    ("train-pose", "--resume", _adam_nope),
], ids=lambda v: getattr(v, "__name__", v))
def test_unbuildable_checkpoint_config_is_data_error(tmp_path, dataset_dir, generate_inputs,
                                                     training_checkpoint, capsys,
                                                     command, flag, edit):
    from quatmotion import models as mo
    good = {"--pace-checkpoint": generate_inputs / "pace.ckpt"}.get(flag, training_checkpoint)
    ck = mo.load_checkpoint(good)
    edit(ck)
    bad = tmp_path / "bad.ckpt"
    mo.save_checkpoint(bad, ck["kind"], ck["config"], ck["arrays"], ck["meta"])
    args = {
        "predict": {"--dataset": dataset_dir},
        "evaluate": {"--dataset": dataset_dir},
        "train-pose": {"--dataset": dataset_dir},
        "generate": {"--pose-checkpoint": training_checkpoint,
                     "--pace-checkpoint": generate_inputs / "pace.ckpt",
                     "--spline": generate_inputs / "way.csv",
                     "--init-clip": dataset_dir / "clip_00000.qmc"},
    }[command]
    args = {**args, flag: bad, "--out": tmp_path / "o"}
    assert run([command] + [a for kv in args.items() for a in kv]) == 2
    err = capsys.readouterr().err
    assert "bad.ckpt" in err and "Traceback" not in err
    if command == "train-pose":  # refused before the manifest or log is written
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_conv_checkpoint_needs_its_receptive_field(tmp_path, dataset_dir, capsys, command):
    from quatmotion import models as mo
    skel = md.load_dataset(dataset_dir)[0].skeleton
    cfg = mo.PoseNetworkConfig.desk(skel.num_active, backbone="convolutional", channels=8)
    ck = tmp_path / "conv.ckpt"
    mo.save_checkpoint(ck, "pose", asdict(cfg), mo.PoseNetwork(cfg).param_arrays())
    # the default --conditioning-frames 10 is below the receptive field
    assert run([command, "--checkpoint", ck, "--dataset", dataset_dir,
                "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert f">= {cfg.receptive_field}" in err and "Traceback" not in err


@pytest.mark.parametrize("backbone", ["recurrent", "convolutional"])
def test_window_and_cli_share_the_conditioning_minimum(tmp_path, dataset_dir, capsys, backbone):
    from quatmotion import models as mo
    from quatmotion.autodiff import Tensor
    clip = md.load_dataset(dataset_dir)[0]
    cfg = mo.PoseNetworkConfig.desk(clip.skeleton.num_active, backbone=backbone,
                                    hidden=8, channels=8)
    net = mo.PoseNetwork(cfg)
    ck = tmp_path / "net.ckpt"
    mo.save_checkpoint(ck, "pose", asdict(cfg), net.param_arrays())
    need = cfg.min_conditioning_frames
    assert need == (32 if backbone == "convolutional" else 1)
    rots = clip.active_rotations[None]
    window = mo.encode_pose(rots, cfg.parameterization)
    for n, code in ((need - 1, 1), (need, 0)):
        assert run(["predict", "--checkpoint", ck, "--dataset", dataset_dir,
                    "--conditioning-frames", n, "--out", tmp_path / f"o{n}"]) == code
        if code:
            with pytest.raises(ValueError, match=f">= {need} frames"):
                net.forward_window(Tensor(window[:, :n]), Tensor(rots[:, n - 1]))
        else:
            net.forward_window(Tensor(window[:, :n]), Tensor(rots[:, n - 1]))
    err = capsys.readouterr().err
    assert f"conditioning_frames >= {need}, got {need - 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "baseline"])
@pytest.mark.parametrize("spec", ["S=abc", "S=-2", "S=0", "S=", "bogus"])
def test_bad_protocol_is_usage_error(tmp_path, dataset_dir, training_checkpoint, capsys,
                                     command, spec):
    model = {"evaluate": ["--checkpoint", training_checkpoint],
             "baseline": ["--kind", "zerovel"]}[command]
    out = tmp_path / "o"
    assert run([command, *model, "--dataset", dataset_dir, "--protocol", spec,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert repr(spec) in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("output", [2, 3], ids=["frequency", "speed"])
def test_generate_non_finite_pace_output_is_numeric_error(tmp_path, generate_args, capsys,
                                                          output):
    from quatmotion import models as mo
    ck = mo.load_checkpoint(generate_args[4])
    ck["arrays"]["head.b"][output] = np.nan
    pace = tmp_path / "nan_pace.ckpt"
    mo.save_checkpoint(pace, "pace", ck["config"], ck["arrays"], ck["meta"])
    args = generate_args[:4] + [pace] + generate_args[5:]
    assert run(args + ["--frames", "5", "--out", tmp_path / "o"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "pace network" in err and "Traceback" not in err


@pytest.mark.parametrize("backbone,weight,n", [("recurrent", "head.b", 10),
                                               ("convolutional", "conv4.b", 32)])
def test_evaluate_non_finite_weights_is_numeric_error(tmp_path, dataset_dir, capsys,
                                                      backbone, weight, n):
    from quatmotion import models as mo
    skel = md.load_dataset(dataset_dir)[0].skeleton
    cfg = mo.PoseNetworkConfig.desk(skel.num_active, backbone=backbone, hidden=8, channels=8)
    arrays = mo.PoseNetwork(cfg).param_arrays()
    arrays[weight][0] = np.nan
    ck = tmp_path / "nan.ckpt"
    mo.save_checkpoint(ck, "pose", asdict(cfg), arrays)
    assert run(["evaluate", "--checkpoint", ck, "--dataset", dataset_dir,
                "--conditioning-frames", n, "--out", tmp_path / "o"]) == cli.EXIT_NUMERIC
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_conditioning_frames_below_one_is_usage_error(tmp_path, dataset_dir, training_checkpoint,
                                                      capsys, command):
    assert run([command, "--checkpoint", training_checkpoint, "--dataset", dataset_dir,
                "--conditioning-frames", "0", "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "conditioning_frames >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, frames, need", [("zerovel", 0, 1), ("runavg4", 3, 4)])
def test_baseline_conditioning_frames_below_window_is_usage_error(tmp_path, dataset_dir, capsys,
                                                                 kind, frames, need):
    assert run(["baseline", "--kind", kind, "--dataset", dataset_dir,
                "--conditioning-frames", frames, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert f"conditioning_frames >= {need}" in err and "Traceback" not in err


@pytest.mark.parametrize("swap", [[1, 2], {"nope": "r_foot"}, {"l_foot": "r_lowleg"}],
                         ids=["list", "unknown-joint", "not-mirror-images"])
def test_bad_swap_map_is_usage_error(tmp_path, dataset_dir, capsys, swap):
    swap_file = tmp_path / "swap.json"
    swap_file.write_text(json.dumps(swap))
    assert run(["convert", "--in", dataset_dir, "--mirror", swap_file,
                "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "swap.json" in err and "Traceback" not in err


@pytest.mark.parametrize("command,line", [
    ("train-pose", "epochs = abc"),
    ("train-pose", "reg_weight = 5"),
    ("train-pose", "mode = sideways"),
    ("train-pose", "backbone = convolutional"),
    ("train-pose", "conditioning_frames = 0"),
    ("train-pose", "prediction_frames = 0"),
    ("train-pose", "batch_size = 0"),
    ("train-pose", "lr0 = -0.001"),
    ("train-pose", "lr0 = inf"),
    ("train-pose", "clip_norm = -0.1"),
    ("train-pose", "clip_norm = 0"),
    ("train-pose", "sampling_decay = 0.5"),
    ("train-pose", "lr_decay = 0.99"),
    ("train-pose", "epochs = -3"),
    ("train-pose", "seed = -1"),
    ("train-pose", "preset = deks"),
    ("train-pace", "epochs = abc"),
    ("train-pace", "clip_norm = 0"),
    ("train-pace", "variant = sideways"),
    ("train-pace", "seed = -1"),
    # keys a pace run never reads
    ("train-pace", "conditioning_frames = 999"),
    ("train-pace", "prediction_frames = 3"),
    ("train-pace", "loss = positional"),
    ("train-pace", "batch_size = 4"),
])
def test_bad_config_value_is_usage_error(tmp_path, dataset_dir, capsys, command, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{line}\ndataset = {dataset_dir}\n")
    out = tmp_path / "o"
    assert run([command, "--config", cfgfile, "--out", out]) == 1
    captured = capsys.readouterr()
    assert line.split(" = ")[1] in captured.err and "Traceback" not in captured.err
    assert line.split(" = ")[0] in captured.err
    # rejected before training starts: no log and no checkpoint, and none named
    assert "checkpoint" not in captured.out
    assert not (out / "training_log.csv").exists()
    assert not list(out.glob("*.ckpt"))


@pytest.mark.parametrize("command,flag,value,line", [
    ("train-pose", "--dataset", None, "dataset = nowhere"),
    ("train-pose", "--preset", "full", "preset = desk"),
    ("train-pace", "--dataset", None, "dataset = nowhere"),
    ("train-pace", "--left-foot", "l_foot", "left_foot = r_foot"),
    ("train-pace", "--right-foot", "r_foot", "right_foot = l_foot"),
])
def test_flag_and_config_key_that_disagree_are_usage_error(tmp_path, dataset_dir, capsys,
                                                           command, flag, value, line):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"{line}\n")
    args = [command, "--config", cfgfile, "--out", tmp_path / "o"]
    args += [flag, value or dataset_dir] + (["--dataset", dataset_dir] if value else [])
    assert run(args) == 1
    out, err = capsys.readouterr()
    key = line.split(" = ")[0]
    assert f"{flag} " in err and f"config key {key}" in err and "Traceback" not in out + err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flags,lines", [
    ("train-pose", ["--preset", "desk"], "preset = desk\nbatch_size = 2\n"
                                         "conditioning_frames = 6\nprediction_frames = 2\n"),
    ("train-pace", ["--left-foot", "l_foot"], "left_foot = l_foot\n"),
])
def test_flag_and_config_key_that_agree_run(tmp_path, dataset_dir, command, flags, lines):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"epochs = 1\ndataset = {dataset_dir}\n{lines}")
    assert run([command, "--config", cfgfile, "--dataset", dataset_dir, *flags,
                "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["dataset"] == str(dataset_dir)


@pytest.mark.parametrize("command", ["train-pose", "train-pace"])
def test_config_that_is_not_utf8_is_usage_error(tmp_path, dataset_dir, capsys, command):
    cfgfile = tmp_path / "binary.cfg"
    cfgfile.write_bytes(b"epochs = 2\n\xff\xfe\x00\x81\n")
    assert run([command, "--config", cfgfile, "--dataset", dataset_dir,
                "--out", tmp_path / "o"]) == 1
    out, err = capsys.readouterr()
    assert "binary.cfg" in err and "UTF-8" in err and "Traceback" not in out + err


@pytest.mark.parametrize("repeat", ["epochs = 3", "dataset = {}"], ids=["epochs", "dataset"])
def test_config_key_given_twice_is_usage_error(tmp_path, dataset_dir, capsys, repeat):
    # even with the same value: the first key would otherwise silently lose
    key = repeat.split()[0]
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text(f"epochs = 1\ndataset = {dataset_dir}\n# again\n"
                       f"{repeat.format(dataset_dir)}\n")
    assert run(["train-pose", "--config", cfgfile, "--out", tmp_path / "o"]) == 1
    out, err = capsys.readouterr()
    first = 1 if key == "epochs" else 2
    assert f"config key {key!r} is given twice, on lines {first} and 4" in err
    assert "Traceback" not in out + err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--left-foot", "--right-foot"])
def test_train_pace_unknown_foot_is_usage_error(tmp_path, dataset_dir, capsys, flag):
    assert run(["train-pace", "--dataset", dataset_dir, flag, "nope",
                "--out", tmp_path / "o"]) == 1
    out, err = capsys.readouterr()
    joints = md.load_dataset(dataset_dir)[0].skeleton.names
    assert flag in err and "'nope'" in err and "Traceback" not in out + err
    assert ", ".join(joints) in err


def test_clips_too_short_to_train_is_data_error(tmp_path):
    skel, clips = lo.make_synth_corpus(2, seed=11, duration=0.3)
    md.save_dataset(tmp_path / "short", clips)
    assert run(["train-pose", "--dataset", tmp_path / "short", "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["evaluate", "baseline"])
def test_closed_stdout_exits_quietly(tmp_path, dataset_dir, training_checkpoint, command):
    # as in `quatmotion evaluate ... | head -0`: the reader is gone before the report
    model = {"evaluate": ["--checkpoint", training_checkpoint],
             "baseline": ["--kind", "zerovel"]}[command]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "quatmotion.cli", command, *map(str, model),
         "--dataset", str(dataset_dir), "--conditioning-frames", "6",
         "--out", str(tmp_path / "o")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert (tmp_path / "o" / "report.csv").exists()


def _write_clip_at_rate(path, dataset_dir, rate: str) -> None:
    """Write the first dataset clip to ``path`` with ``rate`` as its
    header's frame rate, which the writer would not accept."""
    blob = (dataset_dir / "clip_00000.qmc").read_bytes()
    start = len(md.QMC_MAGIC) + 4
    (hlen,) = struct.unpack("<I", blob[len(md.QMC_MAGIC):start])
    header = json.loads(blob[start:start + hlen])
    header["frame_rate"] = float(rate)
    new = json.dumps(header).encode()
    assert rate.encode() in new
    path.write_bytes(md.QMC_MAGIC + struct.pack("<I", len(new)) + new + blob[start + hlen:])


@pytest.mark.parametrize("rate", ["NaN", "Infinity"])
def test_non_finite_clip_frame_rate_is_data_error(tmp_path, dataset_dir, capsys, rate):
    bad = tmp_path / "bad.qmc"
    _write_clip_at_rate(bad, dataset_dir, rate)
    assert run(["baseline", "--kind", "zerovel", "--dataset", bad, "--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    assert "bad.qmc" in err and "frame_rate" in err and "Traceback" not in out + err


@pytest.mark.parametrize("command", ["baseline", "evaluate"])
def test_clip_rate_without_whole_horizon_is_data_error(tmp_path, dataset_dir, training_checkpoint,
                                                       capsys, command):
    # a finite rate at which 80 ms is no finite number of frames
    bad = tmp_path / "bad.qmc"
    _write_clip_at_rate(bad, dataset_dir, "1e+308")
    model = {"evaluate": ["--checkpoint", training_checkpoint],
             "baseline": ["--kind", "zerovel"]}[command]
    assert run([command, *model, "--dataset", bad, "--conditioning-frames", "6",
                "--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    assert "clip 0" in err and "80 ms at 1e+308 Hz" in err and "Traceback" not in out + err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-80", "1", "19.9"])
def test_predict_bad_horizon_is_usage_error(tmp_path, dataset_dir, training_checkpoint, capsys,
                                            value):
    # at 25 Hz, 1 and 19.9 ms are under half a frame
    assert run(["predict", "--checkpoint", training_checkpoint, "--dataset", dataset_dir,
                f"--horizon-ms={value}", "--conditioning-frames", "6",
                "--out", tmp_path / "o"]) == 1
    out, err = capsys.readouterr()
    assert "--horizon-ms" in err and "Traceback" not in out + err


def test_predict_writes_inactive_joints_at_their_constants(tmp_path, dataset_dir):
    from quatmotion import models as mo, rotmath as rm, training as tr
    from quatmotion.optim import AdamState

    clips = []
    for clip in md.load_dataset(dataset_dir):
        clip = freeze_joint(clip, "spine0", SPINE_BEND)
        # the recorded joint wobbles by 1e-5 rad about its constant, as a
        # joint pruned at the default tolerance may
        rots, j = clip.rotations.copy(), clip.skeleton.names.index("spine0")
        wobble = 1e-5 * np.sin(np.arange(clip.num_frames))
        rots[:, j] = rm.qmul(SPINE_BEND, rm.axis_angle_quat([0.0, 1.0, 0.0], wobble))
        clips.append(md.MotionClip(clip.skeleton, clip.frame_rate, clip.root_positions, rots))
    skel = clips[0].skeleton
    md.save_dataset(tmp_path / "ds", clips)
    net = mo.PoseNetwork(mo.PoseNetworkConfig.desk(skel.num_active, hidden=8))
    tr.save_pose_checkpoint(tmp_path / "pose.ckpt", net, skel, tr.TrainConfig(), 1,
                            AdamState(), {"sampler": {}, "rollout": {}})
    assert run(["predict", "--checkpoint", tmp_path / "pose.ckpt", "--dataset", tmp_path / "ds",
                "--horizon-ms", "200", "--conditioning-frames", "6",
                "--out", tmp_path / "o"]) == 0
    pred = md.load_clip(tmp_path / "o" / "pred_00000.qmc")
    assert pred.num_frames == 5
    want = SPINE_BEND.astype(np.float32).astype(float)  # clips are stored as float32
    assert np.array_equal(pred.rotations[:, j], np.tile(want, (5, 1)))


@pytest.mark.parametrize("command", ["predict", "generate"])
def test_commands_without_randomness_take_no_seed(tmp_path, dataset_dir, training_checkpoint,
                                                  generate_args, capsys, command):
    args = {"predict": ["predict", "--checkpoint", training_checkpoint, "--dataset", dataset_dir,
                        "--conditioning-frames", "6"],
            "generate": generate_args + ["--frames", "5"]}[command]
    assert run(args + ["--seed", "0", "--out", tmp_path / "s"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert run(args + ["--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] is None and "seed" not in manifest["config"]


def test_generate_runs_at_the_init_clips_frame_rate(tmp_path, generate_args):
    clip = md.load_clip(generate_args[-1]).slice(0, 10)
    md.save_clip(tmp_path / "init.qmc",
                 md.MotionClip(clip.skeleton, 12.5, clip.root_positions, clip.rotations))
    args = generate_args[:-1] + [tmp_path / "init.qmc", "--frames", "5", "--out", tmp_path / "o"]
    assert run(args) == 0
    assert md.load_clip(tmp_path / "o" / "generated.qmc").frame_rate == 12.5


def test_generate_non_finite_waypoint_is_data_error(tmp_path, generate_args, capsys):
    waypoints = np.stack([np.linspace(0, 5, 51), np.zeros(51), np.zeros(51)], 1)
    waypoints[25, 0] = np.nan
    np.savetxt(tmp_path / "way.csv", waypoints, delimiter=",")
    args = list(generate_args)
    args[args.index("--spline") + 1] = tmp_path / "way.csv"
    assert run(args + ["--frames", "5", "--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    assert "spline point 25 is not finite" in err and "Traceback" not in out + err


def _on_other_skeleton(dataset_dir, path, change: str):
    """The dataset's clips, saved to ``path``, on a skeleton with every
    offset doubled and, by ``change``, nothing else ("offsets"), every joint
    renamed ("renamed") or joint spine0 inactive ("frozen")."""
    clips = md.load_dataset(dataset_dir)
    if change == "frozen":
        clips = [freeze_joint(c, "spine0", SPINE_BEND) for c in clips]
    skel = clips[0].skeleton
    names = [f"{n}_x" for n in skel.names] if change == "renamed" else list(skel.names)
    other = Skeleton(names, skel.parents, 2.0 * skel.offsets, skel.dof_active,
                     skel.constant_rotations, list(skel.euler_orders))
    md.save_dataset(path, [md.MotionClip(other, c.frame_rate, c.root_positions, c.rotations)
                           for c in clips])
    return clips[0].skeleton


@pytest.fixture(scope="module")
def skeleton_commands(tmp_path_factory, dataset_dir, training_checkpoint, generate_args):
    """Per command that reads a pose checkpoint, ``(checkpoint, args(data))``:
    the checkpoint stores the dataset's skeleton, and ``data`` replaces the
    dataset (for generate, the init clip)."""
    from quatmotion import models as mo
    ck = mo.load_checkpoint(generate_args[2])
    walker = tmp_path_factory.mktemp("walker") / "walker.ckpt"
    skel = md.load_dataset(dataset_dir)[0].skeleton
    mo.save_checkpoint(walker, "pose", ck["config"], ck["arrays"], {"skeleton": skel.to_dict()})
    model = ["--checkpoint", training_checkpoint, "--conditioning-frames", "6"]
    return {
        "predict": (training_checkpoint, lambda d: ["predict", *model, "--dataset", d]),
        "evaluate": (training_checkpoint,
                     lambda d: ["evaluate", *model, "--protocol", "S=1", "--dataset", d]),
        "train-pose": (training_checkpoint,
                       lambda d: ["train-pose", "--resume", training_checkpoint, "--dataset", d]),
        "generate": (walker, lambda d: ["generate", "--pose-checkpoint", walker,
                                        *generate_args[3:7], "--init-clip", d / "clip_00000.qmc",
                                        "--frames", "5"]),
    }


@pytest.mark.parametrize("change", ["renamed", "frozen"])
@pytest.mark.parametrize("command", ["predict", "evaluate", "train-pose", "generate"])
def test_data_on_another_skeleton_is_data_error(tmp_path, dataset_dir, skeleton_commands, capsys,
                                                command, change):
    # the skeleton a pose checkpoint stores fixes the names, parents and
    # active joints of the data it reads
    skel = _on_other_skeleton(dataset_dir, tmp_path / "ds", change)
    ck, args = skeleton_commands[command]
    assert run(args(tmp_path / "ds") + ["--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    j = 0 if change == "renamed" else skel.names.index("spine0")
    assert f"joint {j} " in err and str(ck) in err and str(tmp_path / "ds") in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["predict", "evaluate", "generate"])
def test_data_with_other_offsets_runs(tmp_path, dataset_dir, skeleton_commands, command):
    _on_other_skeleton(dataset_dir, tmp_path / "ds", "offsets")
    assert run(skeleton_commands[command][1](tmp_path / "ds") + ["--out", tmp_path / "o"]) == 0


def test_checkpoint_without_skeleton_checks_the_active_count(tmp_path, dataset_dir,
                                                             generate_inputs, capsys):
    _on_other_skeleton(dataset_dir, tmp_path / "ds", "frozen")
    assert run(["evaluate", "--checkpoint", generate_inputs / "pose.ckpt", "--dataset",
                tmp_path / "ds", "--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    assert "skeletons are incompatible" in err and "Traceback" not in out + err


@pytest.mark.parametrize("columns", [1, 4])
def test_generate_spline_of_other_width_is_data_error(tmp_path, generate_args, capsys, columns):
    spline = tmp_path / "spline.csv"
    np.savetxt(spline, np.linspace(0, 3, 30)[:, None].repeat(columns, 1), delimiter=",")
    args = list(generate_args)
    args[args.index("--spline") + 1] = spline
    assert run(args + ["--frames", "5", "--out", tmp_path / "o"]) == 2
    out, err = capsys.readouterr()
    assert "(N, 2) or (N, 3)" in err and "Traceback" not in out + err
