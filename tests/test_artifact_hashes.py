"""tools/artifact_hashes.py on two quick configs: reruns hash alike, and the
wall-clock file run_meta.json is not hashed."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "artifact_hashes",
    Path(__file__).resolve().parent.parent / "tools" / "artifact_hashes.py")
artifact_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_hashes)


def test_reruns_hash_alike_without_run_meta(tmp_path):
    every = artifact_hashes.configs()
    assert len([name for name in every if name.startswith("gate-")]) >= 36
    assert {sub for sub, _ in every.values()} == {
        "gate", "holonomy", "noise-mc", "scaling", "timing", "convergence"}
    runs = {name: every[name] for name in ("holonomy-lune", "noise-mc-direct-none")}
    first = artifact_hashes.hash_runs(runs, tmp_path / "a")
    second = artifact_hashes.hash_runs(runs, tmp_path / "b")
    assert first == second
    assert set(first) == {
        "holonomy-lune/stdout", "holonomy-lune/stderr", "holonomy-lune/exit",
        "holonomy-lune/integrand.csv", "holonomy-lune/summary.json",
        "noise-mc-direct-none/stdout", "noise-mc-direct-none/stderr",
        "noise-mc-direct-none/exit", "noise-mc-direct-none/realizations.csv",
        "noise-mc-direct-none/summary.json"}
    assert (tmp_path / "a" / "holonomy-lune" / "run_meta.json").exists()
