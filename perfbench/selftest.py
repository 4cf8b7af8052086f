"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload for one measured item, untraced and traced, and checks
that each reports every metric of BENCHMARK.json with its unit and passes
its correctness checks. Then checks that perturbed outputs fail those
checks, that a changed exact counter is flagged, and that the benchmark
exits with an error and prints no result where the sources are missing.
Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
from workloads import WORKLOADS  # noqa: E402


def perturbations():
    """(workload, description, function changing an item's outputs, check)."""
    def bump_baseline(out):
        rep = out["bench.baselines"]["zero_velocity"]
        key = next(iter(rep))
        rep[key] = math.nextafter(rep[key], math.inf)

    def scale_model(out):
        for k in out["bench.models"]["gru"]:
            out["bench.models"]["gru"][k] *= 1.0 + 1e-5

    def bump_loss(out):
        out["losses"][-1] *= 1.0 + 1e-4

    def nan_loss(out):
        out["losses"][0] = float("nan")

    def skew_chain(out):
        out["chain"][0, 1] = out["chain"][0, 1] * 1.001

    def shift_reload(out):
        out["read"][0].rotations[0, 0, 1] += 1e-6

    def degenerate_gait(out):
        out["feats"][0].degenerate = True

    def nan_motion(out):
        out["clip"].root_positions[5, 0] = float("nan")

    return [("train", "final loss off by 1e-4", bump_loss, "golden"),
            ("train", "non-finite epoch loss", nan_loss, "output"),
            ("evaluate", "GRU report off by 1e-5 relative", scale_model, "golden"),
            ("evaluate", "baseline report off by one ulp", bump_baseline, "golden"),
            ("ik", "non-unit chain quaternion", skew_chain, "output"),
            ("locomotion", "reloaded clip off by 1e-6", shift_reload, "output"),
            ("locomotion", "degenerate gait features", degenerate_gait, "output"),
            ("locomotion", "non-finite generated root", nan_motion, "output")]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    golden = run.load_golden()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        out_dir = os.path.join(tmp, "out")
        for name in WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                rec = run.run(name, 0, 0.0, trace, spec, golden, out_dir=out_dir)
                res = rec["result"]
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == want, f"{name} trace={int(trace)}: every {section} metric with its unit")
                expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 2,
                       f"{name} trace={int(trace)}: checks pass ({rec['problems']})")
                if not trace:
                    expect(all(v["value"] > 0 for v in res["metrics"].values()),
                           f"{name}: end-to-end metrics are positive")

        with tempfile.TemporaryDirectory(dir=tmp) as workdir:
            for name, what, perturb, kind in perturbations():
                wl = WORKLOADS[name]
                st = wl.setup(0, workdir)
                out = wl.item(st, run._identity)
                expect(not wl.check(st, out), f"{name}: unperturbed outputs pass")
                bad = copy.deepcopy(out)
                perturb(bad)
                if kind == "output":
                    caught = bool(wl.check(st, bad))
                else:
                    want = golden[name]["0"]
                    caught = not wl.golden_matches(json.loads(json.dumps(wl.golden(bad))), want)
                expect(caught, f"{name}: {what} fails its {kind} check")

        flags: list = []
        path = os.path.join(tmp, "counters.json")
        run._compare_counters(path, {"optim.adam_step_calls": 24}, flags)
        run._compare_counters(path, {"optim.adam_step_calls": 25}, flags)
        expect(len(flags) == 1, "a changed exact counter is flagged")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without sources: non-zero exit and no result")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
