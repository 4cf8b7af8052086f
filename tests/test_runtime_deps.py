"""numpy is the only runtime dependency: importing every quatmotion module
and building the command-line parser loads nothing outside the standard
library, numpy and quatmotion itself."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import quatmotion
for info in pkgutil.iter_modules(quatmotion.__path__):
    importlib.import_module("quatmotion." + info.name)
from quatmotion import cli
cli.build_parser()
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_stdlib_and_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "quatmotion" in loaded and "numpy" in loaded
    outside = [name for name in loaded if name not in sys.stdlib_module_names
               and name not in ("numpy", "quatmotion")]
    assert outside == []
