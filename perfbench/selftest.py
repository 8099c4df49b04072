"""Tests of the benchmark itself (not collected by the project's suite).

    python3 -m pytest perfbench/selftest.py -q
"""

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from run import WORKLOADS
from tracer import Layer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def fake_package():
    """fakepkg.mod.outer calls inner twice; fakepkg.user imports inner by
    name and keeps it in a dict, as funcbo does with its runners."""
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    user = types.ModuleType("fakepkg.user")
    user.inner = inner
    user.TABLE = {"inner": inner}
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.mod": mod, "fakepkg.user": user}
    sys.modules.update(modules)
    yield mod, user
    for name in modules:
        del sys.modules[name]


def test_self_time_of_nested_calls(fake_package):
    mod, user = fake_package
    tracer = Tracer(clock=itertools.count().__next__)  # each clock read is one tick
    tracer.install([Layer("outer", ("mod.outer",)), Layer("inner", ("mod.inner",))], "fakepkg")
    mod.outer()  # outside any top-level span: not recorded
    with tracer.span("unit", 0):
        mod.outer()
    # ticks: unit 0..7, outer 1..6, inner 2..3 and 4..5
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("unit", 0, 7, None), ("outer", 1, 6, 0), ("inner", 2, 3, 1), ("inner", 4, 5, 1),
    ]
    assert tracer.self_times() == [2, 3, 1, 1]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == 3 and summary["inner"]["calls"] == 2
    assert summary["inner"]["self_s"] == 2 and summary["unit"]["self_s"] == 2
    assert tracer.root_fit() == [("unit", 5, 7)]
    assert user.inner is user.TABLE["inner"] is mod.inner  # every reference wrapped
    assert mod.inner.__wrapped__() == 1
    tracer.uninstall()
    assert user.inner is user.TABLE["inner"] is mod.inner
    assert not hasattr(mod.inner, "__wrapped__")


def test_missing_function_is_reported_absent(fake_package):
    mod, _ = fake_package
    tracer = Tracer()
    layers = [
        Layer("merged", ("mod.gone", "nomodule.f", "mod.NoClass.method", "mod.inner")),
        Layer("counted", ("mod.outer",), {"rows": lambda args, kwargs, result: len(args[0])}),
    ]
    tracer.install(layers, "fakepkg")
    with tracer.span("unit", 0):
        mod.outer()
    assert tracer.absent == ["mod.gone", "nomodule.f", "mod.NoClass.method", "counted.rows"]
    assert tracer.summary()["merged"]["calls"] == 2


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_manifest_names_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in expected:
        assert metric["name"] in proc.stdout  # also printed by name for people
    if trace:
        assert "absent functions: none" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
