"""Smoke tests: each experiment script's main() on tiny arguments."""
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys) -> list:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + [str(a) for a in args])
    module.main()
    return capsys.readouterr().out.splitlines()


def test_train_desk_model(monkeypatch, capsys):
    out = run_script("train_desk_model", ["--clips", 4, "--epochs", 3],
                     monkeypatch, capsys)
    assert out[0] == "zero-velocity baseline: 0.0560"
    assert out[1].startswith("trained 3 epochs")
    assert out[2].startswith("model: ")


def test_protocol_variance(monkeypatch, capsys):
    out = run_script("protocol_variance",
                     ["--clips", 2, "--protocol-seeds", 3, "--samples", 4, 8],
                     monkeypatch, capsys)
    assert out[0].startswith("corpus: 2 clips")
    assert [line.split()[0] for line in out[2:]] == ["4", "8"]


def test_compare_parameterizations(monkeypatch, capsys):
    out = run_script("compare_parameterizations",
                     ["--clips", 2, "--epochs", 2, "--hidden", 8, "--seeds", 0,
                      "--parameterizations", "quaternion", "expmap", "euler-yzx"],
                     monkeypatch, capsys)
    assert out[0].startswith("threshold: quaternion 99th pct")
    rows = [line.split() for line in out[2:]]
    assert [r[0] for r in rows] == ["quaternion", "expmap", "euler-yzx"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)

