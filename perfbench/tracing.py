"""Span tracing of quatmotion's public functions, applied from outside the
library by rebinding them.

Every binding of a traced function is replaced: the defining module's
attribute, each ``from x import name`` copy in another quatmotion module,
and the package namespace. Methods are replaced on their class. Spans are
kept in memory as ``[name, start, end, parent, workload]`` and written out
when the run ends.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# (span name, module, attribute); "Class.method" patches a method
TRACED = [
    ("training.train_pose", "training", "train_pose"),
    ("training.rollout", "training", "scheduled_sampling_rollout"),
    ("training.validate", "training", "validate_pose"),
    ("training.free_run_predict", "training", "free_run_predict"),
    ("training.euler_error", "training", "euler_error"),
    ("training.pace_example", "training", "pace_training_example"),
    ("training.train_pace", "training", "train_pace"),
    ("autodiff.backward", "autodiff", "Tensor.backward"),
    ("optim.adam_step", "optim", "adam_step"),
    ("models.pose_step", "models", "PoseNetwork.step"),
    ("models.forward_window", "models", "PoseNetwork.forward_window"),
    ("models.pace_forward", "models", "PaceNetwork.forward"),
    ("models.generate", "models", "generate_locomotion"),
    ("kinematics.fk", "kinematics", "forward_kinematics"),
    ("kinematics.fk_tensor", "kinematics", "forward_kinematics_tensor"),
    ("kinematics.ik_reproject", "kinematics", "ik_reproject"),
    ("evaluation.run_protocol", "evaluation", "run_protocol"),
    ("motiondata.sample", "motiondata", "EpisodeSampler.sample"),
    ("motiondata.load_bvh", "motiondata", "load_bvh"),
    ("motiondata.downsample", "motiondata", "downsample_all_phases"),
    ("motiondata.mirror", "motiondata", "mirror"),
    ("motiondata.save_clip", "motiondata", "save_clip"),
    ("motiondata.load_clip", "motiondata", "load_clip"),
    ("motiondata.gait_features", "motiondata", "extract_gait_features"),
    ("motiondata.fit_spline", "motiondata", "fit_spline"),
    ("rotmath.quat_to_euler", "rotmath", "quat_to_euler"),
    ("rotmath.fix_continuity", "rotmath", "fix_continuity"),
]


def count_tape_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through the autodiff graph,
    leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans for one workload run. ``install`` rebinds the traced
    functions, ``uninstall`` restores them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []  # [name, start, end, parent index, workload]
        self._stack: list = []
        self.notes: dict = {}  # span index -> value recorded by a hook
        self._restore: list = []

    def wrap(self, name, fn, pre=None, post=None):
        """Return ``fn`` recording a span per call. Hooks run outside the
        span: ``pre(args, kwargs)`` before it starts and ``post(args,
        kwargs, result)`` after it ends; their return value, if not None,
        is kept as the span's note."""
        spans, stack, notes = self.spans, self._stack, self.notes
        workload = self.workload

        def traced(*args, **kwargs):
            note = pre(args, kwargs) if pre else None
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, workload]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if post:
                note = post(args, kwargs, result)
            if note is not None:
                notes[idx] = note
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import quatmotion
        from quatmotion import optim

        hooks = {
            "autodiff.backward": (lambda a, k: count_tape_nodes(a[0]), None),
            "optim.adam_step": (_clip_hook(optim.global_norm), None),
            "motiondata.save_clip": (None, lambda a, k, r: os.path.getsize(a[0])),
            "motiondata.load_clip": (lambda a, k: os.path.getsize(a[0]), None),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quatmotion" or n.startswith("quatmotion."))]
        for name, modname, attr in TRACED:
            owner = getattr(quatmotion, modname)
            pre, post = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, pre, post))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()


def _clip_hook(global_norm):
    """Record whether the pre-clip global gradient norm exceeds the clip
    threshold; None when the call does not clip."""
    def pre(args, kwargs):
        clip = kwargs.get("clip_norm", args[4] if len(args) > 4 else 0.1)
        if clip is None:
            return None
        return bool(global_norm(args[1]) > clip)
    return pre


# -- deriving layer figures from spans ------------------------------------------

class SpanTable:
    """Self times, children and ancestry over a list of recorded spans."""

    def __init__(self, spans, notes):
        self.spans = spans
        self.notes = notes
        n = len(spans)
        self.children = [[] for _ in range(n)]
        child_time = np.zeros(n)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(i)
                child_time[parent] += end - start
        self.duration = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
        self.self_time = self.duration - child_time

    def under(self, root: int) -> list:
        """Indices of every span nested below ``root``."""
        out, stack = [], list(self.children[root])
        while stack:
            i = stack.pop()
            out.append(i)
            stack.extend(self.children[i])
        return sorted(out)

    def ancestor(self, i: int, name: str) -> int:
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] != name:
            p = self.spans[p][3]
        return p
