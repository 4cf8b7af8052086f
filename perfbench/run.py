"""quatmotion benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload train --seed 0 --seconds 12 --trace 0

Builds the workload's inputs from --seed (set-up is repeated and its median
reported as setup_s), runs one untimed warm-up item, then repeats the item
for --seconds and reports work per second from the median item time. Every
item's outputs are checked; a failed check counts as a failed operation.
With --trace 1 the first half of the time runs untraced and the second half
traced, and the per-layer metrics come from the traced items' spans.

The last line of standard output is the JSON result. The full record, with
provenance, item times and (traced) spans, is written under .perfbench-out/.
Names and units of the metrics come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# set-up repeats: at least 5, and until they took half a second in total
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 0.5, 100
GOLDEN_SEEDS = 16  # golden copies exist for seeds 0..15; seed s checks seed s % 16
QUALITY_METRICS = ("train_loss_final", "ik_max_error", "kinematics.ik_converged_ratio")
EXACT_COUNTERS = ("autodiff.tape_nodes_per_train_step", "autodiff.tape_nodes_per_ik_step",
                  "kinematics.ik_steps_per_solve", "optim.adam_step_calls",
                  "evaluation.chunks")


def _identity(name, fn):
    return fn


class StageTimer:
    """``wrap`` for untraced items: times the benchmark's own stage spans
    (``bench.*``) and leaves every other callable untouched."""

    def __init__(self):
        self.times: dict = {}

    def wrap(self, name, fn):
        if not name.startswith("bench."):
            return fn

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return timed



def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q):
    if not xs:
        return 0.0
    import numpy as np
    return float(np.percentile(xs, q))


def provenance(seed: int) -> dict:
    import numpy as np
    info = {"seed": seed, "nproc": os.cpu_count(), "cpu": platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": None, "blas_threads": None, "git_commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_golden() -> dict:
    try:
        with open(os.path.join(HERE, "golden.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Run:
    """One workload run: set-up, warm-up, measured items, checks."""

    def __init__(self, wl, seed: int, workdir: str):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None
        self.st = None

    def setup(self) -> list:
        times = []
        while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                             and len(times) < SETUP_MAX_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            self.st = self.wl.setup(self.seed, self.workdir)
            times.append(time.perf_counter() - t0)
        return times

    def item(self, call):
        """Run and check one item; returns (outputs or None, seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = []
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if out is not None:
            try:
                problems = self.wl.check(self.st, out)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if self.reference is None:
                self.reference = self.wl.fingerprint(out)
            elif self.wl.fingerprint(out) != self.reference:
                problems.append("outputs differ from the first item's")
        self.fail(problems)
        return out, seconds

    def fail(self, problems) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def golden_check(self, out, golden: dict) -> None:
        """Compare against the copy recorded for seed % GOLDEN_SEEDS."""
        if not self.wl.has_golden:
            return
        gseed = self.seed % GOLDEN_SEEDS
        if gseed != self.seed or out is None:
            st = self.wl.setup(gseed, os.path.join(self.workdir, "golden"))
            self.attempted += 1
            try:
                out = self.wl.item(st, _identity)
            except Exception as exc:  # counted as a failed operation
                self.fail([f"golden item: {type(exc).__name__}: {exc}"])
                return
        want = golden.get(self.wl.name, {}).get(str(gseed))
        got = json.loads(json.dumps(self.wl.golden(out)))
        if want is None or not self.wl.golden_matches(got, want):
            self.fail([f"outputs differ from the golden copy of seed {gseed}"])

    def measure(self, budget: float, call) -> list:
        """Repeat items while the next one is expected to end within budget;
        returns the item times."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start + _median(times) <= budget:
            times.append(self.item(call)[1])
        return times


def layer_metrics(tracer, roots, wl, st, out, problems, flags) -> dict:
    """Per-layer figures per traced item, derived from the spans."""
    from tracing import TRACED, SpanTable
    tab = SpanTable(tracer.spans, tracer.notes)
    spans = tracer.spans
    n = len(roots)
    calls, selfs = Counter(), defaultdict(float)
    per_root_calls = []
    for root in roots:
        mine = Counter()
        for i in tab.under(root):
            name = spans[i][0]
            mine[name] += 1
            selfs[name] += tab.self_time[i]
        calls.update(mine)
        per_root_calls.append(mine)
        for name, want in wl.expected_calls(st, out).items():
            if mine[name] != want:
                problems.append(f"{name}: {mine[name]} calls in an item, expected {want}")
    c = {k: v / n for k, v in calls.items()}
    s = {k: v / n for k, v in selfs.items()}
    # every span name gets <name>_calls and <name>_s; BENCHMARK.json picks.
    # evaluation.predictor wraps the predictor the workload hands to run_protocol
    m = {}
    for name in {t[0] for t in TRACED} | {"evaluation.predictor"}:
        m[f"{name}_calls"] = c.get(name, 0)
        m[f"{name}_s"] = s.get(name, 0.0)
    m["motiondata.augment_s"] = s.get("motiondata.downsample", 0.0) + s.get("motiondata.mirror", 0.0)
    m["evaluation.chunks"] = c.get("evaluation.predictor", 0)

    # a training step runs from its sample to the end of its Adam update
    steps_ms, train_nodes, ik_nodes, clipped = [], set(), set(), []
    bytes_w = bytes_r = 0
    ik_solves, ik_steps = [], 0
    per_item = set()  # exact counters of each item
    for root, mine in zip(roots, per_root_calls):
        steps_before = ik_steps
        for i in tab.under(root):
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            note = tab.notes.get(i)
            if name == "training.train_pose":
                t0 = None
                for ch in tab.children[i]:
                    if spans[ch][0] == "motiondata.sample":
                        t0 = spans[ch][1]
                    elif spans[ch][0] == "optim.adam_step" and t0 is not None:
                        steps_ms.append(1e3 * (spans[ch][2] - t0))
                        t0 = None
            elif name == "autodiff.backward":
                if tab.ancestor(i, "training.train_pose") >= 0:
                    train_nodes.add(note)
                elif tab.ancestor(i, "bench.ik_biped") >= 0:
                    ik_nodes.add(note)
            elif name == "optim.adam_step" and note is not None:
                clipped.append(note)
            elif name == "motiondata.save_clip":
                bytes_w += note
            elif name == "motiondata.load_clip":
                bytes_r += note
            elif name == "kinematics.ik_reproject":
                ik_solves.append(1e3 * (end - start))
                ik_steps += sum(1 for j in tab.under(i) if spans[j][0] == "kinematics.fk_tensor")
        per_item.add((mine["optim.adam_step"], mine["evaluation.predictor"], ik_steps - steps_before))
    for key, nodes in (("autodiff.tape_nodes_per_train_step", train_nodes),
                       ("autodiff.tape_nodes_per_ik_step", ik_nodes)):
        if len(nodes) > 1:
            flags.append(f"{key}: step graphs differ in size {sorted(nodes)}")
        m[key] = max(nodes) if nodes else 0
    m["training.step_ms_p50"] = _percentile(steps_ms, 50)
    m["training.step_ms_p90"] = _percentile(steps_ms, 90)
    m["optim.clip_fraction"] = sum(clipped) / len(clipped) if clipped else 0.0
    m["motiondata.bytes_written"] = bytes_w / n
    m["motiondata.bytes_read"] = bytes_r / n
    m["kinematics.ik_steps_per_solve"] = ik_steps / len(ik_solves) if ik_solves else 0
    m["kinematics.ik_solve_ms_p50"] = _percentile(ik_solves, 50)
    m["kinematics.ik_solve_ms_p90"] = _percentile(ik_solves, 90)
    if len(per_item) > 1:
        flags.append(f"(Adam steps, chunks, IK steps) differ between items: {sorted(per_item)}")
    return m


def _compare_counters(path: str, counters: dict, flags: list) -> None:
    """Flag exact counters that differ from the previous run of this
    workload and seed, then store the current ones."""
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        for k, v in counters.items():
            if k in before and before[k] != v:
                flags.append(f"{k}: {v} here, {before[k]} in the previous run")
    with open(path, "w") as fh:
        json.dump(counters, fh)


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
        golden: dict, out_dir: str = OUT_DIR) -> dict:
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    flags: list = []
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        r = Run(wl, seed, workdir)
        setup_times = r.setup()
        st = r.st
        out0, _ = r.item(lambda: wl.item(st, _identity))
        r.golden_check(out0, golden)
        ops = wl.ops(st, out0) if out0 is not None else 1  # the run already failed
        budget = seconds / 2 if trace else seconds
        stages = StageTimer()
        times = r.measure(budget, lambda: wl.item(st, stages.wrap))
        named = {}
        if wl.metric:
            named[wl.metric] = (ops / _median(times), f"{wl.op}/s")
        for stage, (stage_ops, metric, unit) in (wl.stages(st, out0).items() if out0 else ()):
            if stages.times.get(stage):  # absent only when every item failed before it
                named[metric] = (stage_ops / _median(stages.times[stage]), unit)
        metrics = {
            "ops_per_s": ops / _median(times),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record = {"workload": workload, "op": wl.op, "ops_per_item": ops,
                  "named_metrics": named, "setup_times": setup_times,
                  "item_times": times, "stage_times": stages.times}
        if trace:
            from tracing import Tracer
            tracer = Tracer(workload)
            tracer.install()
            try:
                item = tracer.wrap("bench.item", wl.item)
                first = len(tracer.spans)
                traced_times = r.measure(budget, lambda: item(st, tracer.wrap))
            finally:
                tracer.uninstall()
            roots = [i for i in range(first, len(tracer.spans)) if tracer.spans[i][0] == "bench.item"]
            problems: list = []
            metrics = layer_metrics(tracer, roots, wl, st, out0, problems, flags)
            r.fail(problems)
            metrics.update(dict.fromkeys(QUALITY_METRICS, 0.0))
            if out0 is not None:
                metrics.update(wl.quality(st, out0))
            metrics["trace.overhead_ratio"] = _median(traced_times) / _median(times)
            record["traced_item_times"] = traced_times
            counters = {k: metrics[k] for k in EXACT_COUNTERS}
            _compare_counters(os.path.join(out_dir, f"counters-{workload}-seed{seed}.json"),
                              counters, flags)
            with open(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"), "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "workload"],
                           "spans": tracer.spans}, fh)
    section = "per_layer" if trace else "end_to_end"
    result = {"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec[section]}}
    record.update(problems=r.problems, flags=flags, result=result)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quatmotion", "__init__.py")):
        print(f"perfbench: no quatmotion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    prov = provenance(args.seed)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), spec, load_golden())
    record["provenance"] = prov
    if prov["blas_threads"] is not None and prov["blas_threads"] > (prov["nproc"] or 1):
        record["flags"].append(f"BLAS uses {prov['blas_threads']} threads on {prov['nproc']} CPUs")
    result = record["result"]
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed ({result['failed'] / result['attempted']:.1%}), "
          f"{len(record['item_times'])} timed items of {record['ops_per_item']} {wl.op}")
    for name, (value, unit) in record["named_metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"  FAILED CHECK: {p}")
    for f in record["flags"]:
        print(f"  FLAG: {f}")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
