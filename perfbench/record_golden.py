"""Record the golden outputs that correctness checks compare against.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right: it overwrites
perfbench/golden.json with the outputs of that commit for seeds
0..GOLDEN_SEEDS-1 of every workload that has a golden copy.
"""

import json
import os
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for wl in WORKLOADS.values():
            if not wl.has_golden:
                continue
            golden[wl.name] = {}
            for seed in range(run.GOLDEN_SEEDS):
                st = wl.setup(seed, workdir)
                golden[wl.name][str(seed)] = wl.golden(wl.item(st, run._identity))
                print(wl.name, seed, flush=True)
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
