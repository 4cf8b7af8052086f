"""Command-line interface: conversion, training, prediction, generation,
evaluation, baselines, and gradient checking.

Every run writes ``manifest.json`` (resolved config, package version,
seed, null for commands that draw no random numbers) into the output
directory before producing any other file. Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 numerical failure.
Only :func:`main` maps exceptions onto them: a ``CliError`` carries its
code, a ``ValueError`` is a data error, an ``OSError`` a usage error, and
a ``NumericalError`` or ``GenerationDivergedError`` a numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import evaluation as ev
from . import locomotion as lo
from . import motiondata as md
from . import models as mo
from . import training as tr
from .autodiff import NumericalError
from .bvh import BvhParseError
from .gradcheck import run_gradcheck
from .kinematics import expand_active

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# the values of train-pose's --preset flag and preset key, and the network each builds
PRESETS = {"desk": mo.PoseNetworkConfig.desk, "full": mo.PoseNetworkConfig}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_config(path) -> dict:
    """Plain UTF-8 key=value config: one pair per line, each key once, '#' comments."""
    out, lines_of = {}, {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise CliError(f"{path}: not a UTF-8 text config ({e.reason} at byte {e.start})",
                           EXIT_USAGE)
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value", EXIT_USAGE)
        key, val = (part.strip() for part in line.split("=", 1))
        if key in lines_of:
            raise CliError(f"{path}: config key {key!r} is given twice, on lines "
                           f"{lines_of[key]} and {lineno}", EXIT_USAGE)
        lines_of[key] = lineno
        out[key] = val
    return out


def _coerce(raw: dict, defaults: dict) -> dict:
    """Cast config strings onto the types of ``defaults``; other keys are usage errors."""
    out = {}
    for key, val in raw.items():
        if key not in defaults:
            raise CliError(f"config key {key!r} = {val!r} is not read by this command", EXIT_USAGE)
        cur = defaults[key]
        if isinstance(cur, bool):
            out[key] = val.lower() in ("1", "true", "yes")
        elif isinstance(cur, (int, float)):
            try:
                out[key] = type(cur)(val)
            except ValueError:
                raise CliError(f"config key {key!r} needs {type(cur).__name__}, "
                               f"not {val!r}", EXIT_USAGE)
        else:
            out[key] = val
    return out


def _make_config(cls, *args, **kwargs):
    """Build a config dataclass; a rejected value is a usage error."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise CliError(f"bad config value: {e}", EXIT_USAGE)


def write_manifest(out_dir, args: argparse.Namespace, seed: int | None, **extra) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"version": __version__, "seed": seed,
                "config": {k: v for k, v in vars(args).items() if k != "func"}, **extra}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _load_clips(path) -> list:
    """The clips of a directory of ``.qmc`` clips, a ``.bvh`` file or a
    ``.qmc`` file, all on clip 0's skeleton."""
    try:
        if os.path.isdir(path):
            clips = md.load_dataset(path)
        elif path.endswith(".bvh"):
            clips = [md.load_bvh(path)[1]]
        else:
            clips = [md.load_clip(path)]
    except BvhParseError as e:
        raise CliError(f"{path}: {e}", EXIT_DATA)
    skel = clips[0].skeleton.to_dict()
    for i, clip in enumerate(clips[1:], start=1):
        if clip.skeleton.to_dict() != skel:
            raise ValueError(f"{path}: clip {i} has a skeleton other than clip 0's")
    return clips


# -- subcommands -----------------------------------------------------------------

def cmd_convert(args) -> int:
    write_manifest(args.out, args, args.seed)
    clips = _load_clips(args.input)
    if args.prune_tol is not None:
        skel = md.prune_constant_joints(clips[0].skeleton, clips, args.prune_tol)
        for c in clips:
            c.skeleton = skel
    if args.downsample > 1:
        clips = [p for c in clips for p in md.downsample_all_phases(c, args.downsample)]
    if args.mirror is not None:
        try:
            with open(args.mirror) as fh:
                swap = json.load(fh)
            clips = clips + [md.mirror(c, swap) for c in clips]
        except (OSError, ValueError) as e:
            raise CliError(f"swap map {args.mirror!r}: {e}", EXIT_USAGE)
    if args.augment_rotations > 0:
        rng = np.random.default_rng(args.seed)
        clips = clips + [md.rotate_clip(c, rng.uniform(0.0, 2.0 * np.pi))
                         for _ in range(args.augment_rotations) for c in clips]
    if args.bvh:
        for i, c in enumerate(clips):
            md.save_bvh(os.path.join(args.out, f"clip_{i:05d}.bvh"), c)
    md.save_dataset(args.out, clips)
    skel = clips[0].skeleton
    print(f"wrote {len(clips)} clips, {sum(c.num_frames for c in clips)} frames, "
          f"{skel.num_active}/{skel.num_joints} active joints -> {args.out}")
    return EXIT_OK


def _train_setup(args, config_cls, **keys):
    """Read ``args.config``: the values of ``keys`` (their defaults as given), the
    ``config_cls`` the other keys build, and the clips of the dataset the config or
    ``--dataset`` names. A key that is also a flag (``dataset``, ``preset``,
    ``left_foot``, ``right_foot``) may be set in one place or in both with one
    value; its value is stored on ``args``, so the manifest records it."""
    raw = read_config(args.config) if args.config else {}
    values = {}
    for key, default in {"dataset": None, **keys}.items():
        flag = getattr(args, key, None)
        if flag is not None and raw.get(key, flag) != flag:
            raise CliError(f"--{key.replace('_', '-')} {flag!r} and config key {key} = "
                           f"{raw[key]!r} disagree", EXIT_USAGE)
        values[key] = raw.pop(key, default if flag is None else flag)
        if hasattr(args, key):
            setattr(args, key, values[key])
    del values["dataset"]  # on args, where _train_clips reads it
    config = _make_config(config_cls.from_dict, _coerce(raw, {**asdict(config_cls()), **tr.FIXED}))
    return values, config, _train_clips(args, config)


def _train_clips(args, config: tr.PaceTrainConfig) -> list:
    """Write the manifest with ``config`` and its seed, and load ``args.dataset``."""
    if args.dataset is None:
        raise CliError("no dataset given (flag --dataset or config key)", EXIT_USAGE)
    write_manifest(args.out, args, config.seed, train_config=asdict(config))
    return _load_clips(args.dataset)


def cmd_train_pose(args) -> int:
    if args.resume:
        if args.config:
            raise CliError("--config cannot be given with --resume: a resumed run "
                           "keeps the configuration its checkpoint stores", EXIT_USAGE)
        net, skel, config, resume = _load_checkpoint(
            args.resume, "pose", lambda ck: tr.read_pose_checkpoint(ck, resume=True))
        clips = _train_clips(args, config)
        _check_skeleton(args.resume, skel, net, args.dataset, clips[0].skeleton)
    else:
        opts, config, clips = _train_setup(args, tr.TrainConfig, preset="desk",
                                           backbone="recurrent", mode="velocity",
                                           parameterization="quaternion")
        preset = opts.pop("preset")
        if preset not in PRESETS:
            raise CliError(f"config key preset = {preset!r}: use one of {', '.join(PRESETS)}",
                           EXIT_USAGE)
        net = mo.PoseNetwork(_make_config(PRESETS[preset], clips[0].skeleton.num_active, **opts),
                             seed=config.seed)
        resume = {}
    _check_conditioning(net, config.conditioning_frames)
    ck_path = os.path.join(args.out, "pose.ckpt")
    log_path = os.path.join(args.out, "training_log.csv")
    # with no epoch left this trains nothing, but still checks and cuts the log
    tr.train_pose(net, clips, clips[0].skeleton, config, log_path=log_path,
                  checkpoint_path=ck_path, **resume)
    start = resume.get("start_epoch", 0)
    if start >= config.epochs:
        print(f"nothing to train: {args.resume} is at epoch {start} of {config.epochs}")
    else:
        print(f"checkpoint -> {ck_path}")
    print(f"log -> {log_path}")
    return EXIT_OK


def cmd_train_pace(args) -> int:
    opts, config, clips = _train_setup(args, tr.PaceTrainConfig, variant="bidirectional",
                                       left_foot="l_foot", right_foot="r_foot")
    pace_config = _make_config(lo.PaceNetworkConfig, variant=opts["variant"])
    names, feet = clips[0].skeleton.names, []
    for key in ("left_foot", "right_foot"):
        if opts[key] not in names:
            raise CliError(f"--{key.replace('_', '-')} (config key {key}) {opts[key]!r} is not "
                           f"a joint of the dataset's skeleton: {', '.join(names)}", EXIT_USAGE)
        feet.append(names.index(opts[key]))
    feats = [(clip, lo.extract_gait_features(clip, *feet)) for clip in clips]
    examples = [lo.pace_training_example(clip, f)[:2] for clip, f in feats if not f.degenerate]
    if not examples:
        raise CliError("no clip produced usable gait features", EXIT_DATA)
    net = lo.PaceNetwork(pace_config, seed=config.seed)
    lo.train_pace(net, examples, config, log_path=os.path.join(args.out, "training_log.csv"))
    ck = os.path.join(args.out, "pace.ckpt")
    lo.save_pace_checkpoint(ck, net, config)
    print(f"checkpoint -> {ck}")
    return EXIT_OK


def _load_checkpoint(path, kind: str, build):
    """``build(ck)`` for the ``kind`` checkpoint at ``path``. A checkpoint
    of another kind is a usage error; one whose stored config or arrays
    cannot build, a data error naming ``path``."""
    ck = mo.load_checkpoint(path)
    if ck["kind"] != kind:
        raise CliError(f"{path}: not a {kind} checkpoint", EXIT_USAGE)
    try:
        return build(ck)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path}: stored checkpoint is unusable: {e!r}", EXIT_DATA)


def _check_conditioning(net: mo.PoseNetwork, n: int) -> None:
    cfg = net.config
    if n < cfg.min_conditioning_frames:
        raise CliError(f"the {cfg.backbone} backbone needs conditioning_frames >= "
                       f"{cfg.min_conditioning_frames}, got {n}", EXIT_USAGE)


def _check_skeleton(ck_path, trained, net: mo.PoseNetwork, data_path, skel) -> None:
    """Data read from ``data_path`` on ``skel`` must have the joint names,
    parents and active joints of ``trained``, the skeleton the checkpoint
    stores, which define the network's inputs and outputs; offsets and Euler
    orders may differ. Without a stored skeleton (None) only the count of
    active joints is checked."""
    if trained is None:
        if skel.num_active != net.config.num_joints:
            raise CliError(f"{ck_path} and {data_path}: checkpoint and data skeletons are "
                           f"incompatible", EXIT_DATA)
        return
    have, want = ([*zip(s.names, s.parents.tolist(), s.dof_active.tolist())]
                  for s in (skel, trained))
    for j, (got, need) in enumerate(itertools.zip_longest(have, want)):
        if got != need:
            raise CliError(f"{data_path}: joint {j} (name, parent, active) is {got}, but the "
                           f"skeleton {ck_path} was trained on has {need}", EXIT_DATA)


def _load_model_and_data(args) -> tuple:
    """The pose network of ``--checkpoint`` and the clips of ``--dataset``,
    checked against ``--conditioning-frames`` and each other."""
    net, skel, _, _ = _load_checkpoint(args.checkpoint, "pose", tr.read_pose_checkpoint)
    _check_conditioning(net, args.conditioning_frames)
    clips = _load_clips(args.dataset)
    _check_skeleton(args.checkpoint, skel, net, args.dataset, clips[0].skeleton)
    return net, clips


def cmd_predict(args) -> int:
    write_manifest(args.out, args, None)
    net, clips = _load_model_and_data(args)
    skel = clips[0].skeleton
    try:
        horizons = [ev.horizon_frames(args.horizon_ms, clip.frame_rate) for clip in clips]
    except ValueError as e:
        raise CliError(f"--horizon-ms {args.horizon_ms}: {e}", EXIT_USAGE)
    n = args.conditioning_frames
    rows = []
    for ci, (clip, horizon) in enumerate(zip(clips, horizons)):
        if clip.num_frames < n + horizon:
            continue
        rots = clip.active_rotations
        pred = tr.free_run_predict(net, rots[:n], horizon)
        err = tr.euler_error(pred[-1][None], rots[n + horizon - 1][None],
                             skel.active_euler_orders)[0]
        rows.append([ci, clip.action, args.horizon_ms, err])
        out_clip = md.MotionClip(skel, clip.frame_rate,
                                 clip.root_positions[n:n + horizon], expand_active(skel, pred),
                                 clip.subject, clip.action + "_pred")
        md.save_clip(os.path.join(args.out, f"pred_{ci:05d}.qmc"), out_clip)
        if args.bvh:
            md.save_bvh(os.path.join(args.out, f"pred_{ci:05d}.bvh"), out_clip)
    if not rows:
        raise ValueError(f"no clip has the {n} conditioning frames and "
                         f"{args.horizon_ms} ms that a prediction needs")
    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["clip", "action", "horizon_ms", "euler_error"])
        w.writerows(rows)
    print(f"wrote {len(rows)} predictions -> {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    write_manifest(args.out, args, None)
    pose_net, skel, _, _ = _load_checkpoint(args.pose_checkpoint, "pose", tr.read_pose_checkpoint)
    pace_net = _load_checkpoint(args.pace_checkpoint, "pace", lo.pace_network_from_checkpoint)
    init = _load_clips(args.init_clip)[0]
    _check_skeleton(args.pose_checkpoint, skel, pose_net, args.init_clip, init.skeleton)
    waypoints = np.loadtxt(args.spline, delimiter=",", ndmin=2)
    spline = lo.fit_spline(waypoints, args.segment_length)
    clip = lo.generate_locomotion(pose_net, pace_net, spline, init, args.frames, init.frame_rate)
    md.save_clip(os.path.join(args.out, "generated.qmc"), clip)
    if args.bvh:
        md.save_bvh(os.path.join(args.out, "generated.bvh"), clip)
    dist = np.linalg.norm(np.diff(clip.root_positions[:, [0, 2]], axis=0), axis=1).sum()
    print(f"generated {clip.num_frames} frames covering {dist:.2f} units -> {args.out}")
    return EXIT_OK


def _report(args, predictor, clips) -> int:
    """Run the protocol ``--protocol`` names (standard, proposed or
    S=<integer >= 1>) with ``predictor`` on ``clips``; write report.csv."""
    kw = {"seed": args.seed, "conditioning_frames": args.conditioning_frames}
    spec = args.protocol
    presets = {"standard": ev.EvalProtocol.standard, "proposed": ev.EvalProtocol.proposed}
    if spec in presets:
        proto = presets[spec](**kw)
    elif spec.startswith("S=") and spec[2:].isdecimal() and int(spec[2:]) >= 1:
        proto = ev.EvalProtocol(samples_per_sequence=int(spec[2:]), **kw)
    else:
        raise CliError(f"unknown protocol {spec!r}: use standard, proposed or "
                       f"S=<integer >= 1>", EXIT_USAGE)
    report = ev.run_protocol(predictor, clips, proto)
    report.to_csv(os.path.join(args.out, "report.csv"))
    print(report.summary())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    write_manifest(args.out, args, args.seed)
    net, clips = _load_model_and_data(args)
    return _report(args, lambda p, h: tr.free_run_predict(net, p, h), clips)


def cmd_baseline(args) -> int:
    write_manifest(args.out, args, args.seed)
    clips = _load_clips(args.dataset)
    need = {"zerovel": 1, "runavg2": 2, "runavg4": 4}[args.kind]
    if args.conditioning_frames < need:
        raise CliError(f"the {args.kind} baseline needs conditioning_frames >= {need}, "
                       f"got {args.conditioning_frames}", EXIT_USAGE)
    if args.kind == "zerovel":
        predictor = ev.baseline_zero_velocity
    else:
        predictor = lambda p, h: ev.baseline_running_average(p, h, window=need)
    return _report(args, predictor, clips)


def cmd_gradcheck(args) -> int:
    failures = run_gradcheck(verbose=True)
    if failures:
        print(f"FAILED: {failures} gradient checks", file=sys.stderr)
        return EXIT_NUMERIC
    print("all gradient checks passed")
    return EXIT_OK


# -- parser -------------------------------------------------------------------------

def _at_least(kind, low, strict: bool = False):
    """An argparse ``type=``: a finite ``kind`` ``>= low``, or ``> low`` if ``strict``."""
    def parse(text: str):
        value = kind(text)
        if not (low < value < float("inf") or value == low and not strict):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} {'>' if strict else '>='} {low}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _shared(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several subcommands take."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*flags, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quatmotion",
                                description="Quaternion motion modeling toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    out = _shared("--out", required=True, help="output directory")
    bvh = _shared("--bvh", action="store_true", help="also write BVH files")
    config = _shared("--config", help="key=value config file")
    checkpoint = _shared("--checkpoint", required=True, help="pose checkpoint")
    conditioning = _shared("--conditioning-frames", type=int, default=10)
    protocol = _shared("--protocol", default="standard", help="standard | proposed | S=<int>")

    c = sub.add_parser("convert", parents=[out, bvh], help="import/preprocess motion data")
    c.add_argument("--in", dest="input", required=True, help=".bvh file, .qmc file or .qmc dir")
    c.add_argument("--downsample", type=_at_least(int, 1), default=1)
    c.add_argument("--mirror", help="JSON file with a left/right joint swap map")
    c.add_argument("--prune-tol", type=_at_least(float, 0))
    c.add_argument("--augment-rotations", type=_at_least(int, 0), default=0)
    c.add_argument("--seed", type=_at_least(int, 0), default=0)
    c.set_defaults(func=cmd_convert)

    t = sub.add_parser("train-pose", parents=[out, config], help="train a pose network")
    t.add_argument("--dataset")
    t.add_argument("--preset", choices=list(PRESETS), help="desk (the default) or full")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.set_defaults(func=cmd_train_pose)

    tp = sub.add_parser("train-pace", parents=[out, config], help="train the pace network")
    tp.add_argument("--dataset")
    tp.add_argument("--left-foot", help="default l_foot")
    tp.add_argument("--right-foot", help="default r_foot")
    tp.set_defaults(func=cmd_train_pace)

    pr = sub.add_parser("predict", parents=[out, bvh, checkpoint, conditioning],
                        help="short-term prediction from a checkpoint")
    pr.add_argument("--dataset", required=True)
    pr.add_argument("--horizon-ms", type=float, default=400)
    pr.set_defaults(func=cmd_predict)

    g = sub.add_parser("generate", parents=[out, bvh], help="long-term locomotion along a spline")
    g.add_argument("--pose-checkpoint", required=True)
    g.add_argument("--pace-checkpoint", required=True)
    g.add_argument("--spline", required=True, help="CSV of ground-plane waypoints")
    g.add_argument("--init-clip", required=True)
    g.add_argument("--segment-length", type=_at_least(float, 0, strict=True), default=0.25)
    g.add_argument("--frames", type=_at_least(int, 1), default=300)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("evaluate", parents=[out, checkpoint, conditioning, protocol],
                       help="run the short-term protocol on a model")
    e.add_argument("--dataset", required=True)
    e.add_argument("--seed", type=_at_least(int, 0), default=1234)
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("baseline", parents=[out, conditioning, protocol],
                       help="run the protocol on a baseline")
    b.add_argument("--kind", choices=["zerovel", "runavg2", "runavg4"], required=True)
    b.add_argument("--dataset", required=True)
    b.add_argument("--seed", type=_at_least(int, 0), default=1234)
    b.set_defaults(func=cmd_baseline)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a closed stdout (`| head`): exit quietly, also at the flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (NumericalError, lo.GenerationDivergedError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
