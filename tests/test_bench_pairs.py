"""The rules tools/bench_pairs.py applies to a perf claim, on synthetic runs,
and its copy of the working tree, on a throwaway git repository.

summarize only compares two lists of per-run values, so these tests feed it
made-up base and change runs and never run the benchmark.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BASE = [float(v) for v in range(1, 11)]  # median 5.5, quartiles 3.25 and 7.75


def verdict(better, base, change, bound=0.25):
    return bench_pairs.summarize("m", better, bound, base, change)


def test_win_rule_needs_nine_tenths_of_at_least_ten_pairs():
    flat = [10.0] * 10
    assert "change wins 9/10  9/10 rule holds" in verdict(
        "higher", flat, [11.0] * 9 + [9.0])
    assert "change wins 8/10  9/10 rule fails" in verdict(
        "higher", flat, [11.0] * 8 + [9.0] * 2)
    # Every pair won, but nine pairs are too few to claim a gain.
    assert "change wins 9/9  9/10 rule fails" in verdict("higher", [10.0] * 9, [11.0] * 9)
    # Ties count for neither side.
    assert "change wins 0/10  9/10 rule fails" in verdict("higher", flat, flat)


def test_win_rule_follows_the_metric_direction():
    assert "9/10 rule holds" in verdict("lower", BASE, [v - 0.5 for v in BASE])
    assert "9/10 rule fails" in verdict("higher", BASE, [v - 0.5 for v in BASE])


def test_iqr_rule_needs_a_median_gain_above_the_base_spread():
    # The base's interquartile range is 7.75 - 3.25 = 4.5.
    assert "IQR rule holds" in verdict("higher", BASE, [v + 5.0 for v in BASE])
    assert "IQR rule fails" in verdict("higher", BASE, [v + 4.0 for v in BASE])
    assert "IQR rule holds" in verdict("lower", BASE, [v - 5.0 for v in BASE])
    assert "IQR rule fails" in verdict("lower", BASE, [v + 5.0 for v in BASE])


@pytest.mark.parametrize("better, factor, within", [
    ("higher", 0.8, "yes"), ("higher", 0.7, "NO"), ("higher", 1.5, "yes"),
    ("lower", 1.2, "yes"), ("lower", 1.3, "NO"), ("lower", 0.5, "yes"),
])
def test_regression_bound_is_relative_to_the_base_median(better, factor, within):
    line = verdict(better, BASE, [factor * v for v in BASE])
    assert line.endswith(f"within bound 0.25 {within}")


def test_worktree_export_copies_what_git_would_commit_as_it_is_on_disk(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "edited.txt").write_text("committed\n")
    (repo / "deleted.txt").write_text("committed\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "kept.py").write_text("x = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "init")
    (repo / "edited.txt").write_text("uncommitted\n")
    (repo / "deleted.txt").unlink()
    (repo / "pkg" / "new.py").write_text("y = 2\n")
    (repo / "pkg" / "run.log").write_text("ignored\n")

    out = tmp_path / "out"
    bench_pairs.export_worktree(repo, out)
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert files == [".gitignore", "edited.txt", "pkg/kept.py", "pkg/new.py"]
    assert (out / "edited.txt").read_text() == "uncommitted\n"
    assert not (out / ".git").exists()
