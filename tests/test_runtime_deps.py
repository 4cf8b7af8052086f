"""numpy is the only runtime dependency: importing every quatmotion module
and building the command-line parser loads nothing outside the standard
library, numpy and quatmotion itself. Sibling modules are imported at
module top, never inside a function. Checkpoint files are read and written
only by the modules that own their kinds. How an op computes off the tape
is decided in ``autodiff`` alone."""
import ast
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


def test_no_function_body_imports_a_quatmotion_module():
    found = []
    for path in sorted((SRC / "quatmotion").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["quatmotion"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "quatmotion" for name in names):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert found == []


def test_only_the_owners_of_a_checkpoint_kind_read_or_write_one():
    # pose checkpoints belong to training and pace ones to locomotion; the
    # command line only loads a file to check its kind (cli._load_checkpoint)
    owners = {"training.py", "locomotion.py"}
    found = []
    for path in sorted((SRC / "quatmotion").glob("*.py")):
        if path.name in owners:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and path.name == "cli.py"
                   and fn.name == "_load_checkpoint" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("save_checkpoint", "load_checkpoint") and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_autodiff_decides_how_ops_run_off_the_tape():
    # the networks have one forward, written against the ops: outside
    # autodiff nothing reads the tape switch or names the ops' array kernels
    banned = {"_recording", "_gru_forward", "_gru_states", "_leaky", "_conv_forward"}
    found = []
    for path in sorted((SRC / "quatmotion").glob("*.py")):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else getattr(node, "attr", None))
            if name in banned:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []
