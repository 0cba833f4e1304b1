"""Tests of the benchmark itself: metrics emitted, failures counted, tracing undone."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.load_library()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
MIN_TIMED_OPS = run.MIN_TIMED_OPS


@pytest.fixture(autouse=True)
def one_cycle(monkeypatch):
    """Runs of one set-up and one input cycle, to keep the tests short."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_TIMED_OPS", 1)


def _tiny(workload, tmp_path, trace=False):
    return run.run_benchmark(workload, 3, 0.0, trace, tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(workload, tmp_path):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _tiny(workload, tmp_path, trace)
        metrics = run.select_metrics(result["metrics"], SPEC[key])
        assert list(metrics) == [m["name"] for m in SPEC[key]]
        for declared in SPEC[key]:
            value = metrics[declared["name"]]
            assert value["unit"] == declared["unit"]
            assert np.isfinite(value["value"])
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["report"]["failures"]


def test_injected_failing_check_is_counted(tmp_path, monkeypatch):
    clean = _tiny("gate", tmp_path)
    assert clean["metrics"]["success_ratio"] == 1.0
    assert clean["correct"]

    original = workloads.Gate.check

    def failing_every_other(self, text, code):
        failures = original(self, text, code)
        return failures + ["injected"] if "frame = moving" in text else failures

    monkeypatch.setattr(workloads.Gate, "check", failing_every_other)
    result = _tiny("gate", tmp_path)
    assert result["failed"] > 0
    assert result["metrics"]["success_ratio"] == 0.5
    assert not result["correct"]


def test_raising_operation_is_counted(tmp_path, monkeypatch):
    def boom(self, inp):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.McFull, "run", boom)
    result = _tiny("mc_full", tmp_path)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_timed_operations_floor_and_fresh_set_ups(tmp_path, monkeypatch):
    # p90 of the floor's samples has at least 10 samples beyond it.
    assert MIN_TIMED_OPS - math.ceil(0.9 * MIN_TIMED_OPS) >= 10
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_TIMED_OPS", 3)
    result = _tiny("mc_full", tmp_path)
    report = result["report"]
    # The deadline has passed at once; the floor alone sets the count.
    assert report["timed_ops"] == report["latency_samples"] == 3
    assert len(report["setup_times_s"]) == 2
    assert all(t > 0 for t in report["setup_times_s"])
    # Both warm-ups, the timed operations and the traced one are counted.
    assert result["attempted"] == 2 + 3 + 1
    assert result["failed"] == 0, report["failures"]


def _bindings():
    """Every attribute of the library modules, ControlPath and numpy.random."""
    import tripodholo.paths

    holders = [m for name, m in sorted(sys.modules.items())
               if name == "tripodholo" or name.startswith("tripodholo.")]
    holders += [tripodholo.paths.ControlPath, np.random]
    return {(id(h), k): v for h in holders for k, v in list(vars(h).items())}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import tripodholo

    before = _bindings()
    original = tripodholo.mc_delta
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tripodholo.mc_delta is not original
        assert tripodholo.experiments.mc_delta is not original
        assert tripodholo.holonomy.integrate_path is tripodholo.quadrature.integrate_path
    assert tripodholo.mc_delta is original

    _tiny("mc_full", tmp_path, trace=True)
    _tiny("gate", tmp_path, trace=True)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_spans_nest_and_count(tmp_path):
    result = _tiny("mc_full", tmp_path, trace=True)
    layers = result["metrics"]
    assert layers["experiments.mc_delta.calls"] == 1.0
    assert layers["experiments.mc_delta.realizations"] == workloads.McFull.N
    assert layers["tripod.step_unitaries.calls"] >= workloads.McFull.N
    assert layers["paths.perturb.calls"] == workloads.McFull.N
    assert layers["rng.standard_normal.draws"] > 0
    out = tmp_path / "spans.json"
    result["tracer"].write(out)
    spans = json.loads(out.read_text())
    ids = {s[0] for s in spans["spans"]}
    assert all(s[2] is None or s[2] in ids for s in spans["spans"])


def test_exits_nonzero_without_the_library(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
