"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --workload gate --pairs 10 --seed 1001

Exports ``--base`` (a git revision, default HEAD) with ``git archive`` into a
temporary directory, and the working tree (tracked and untracked files that
git does not ignore, as they are on disk) into another, so that both sides
run from fresh copies alike. It then runs ``benchmarks/run.py --trace 0``
alternately in the two copies, ``--pairs`` times, with the same
workload, run length and seed on both sides of a pair (seed ``--seed + i``
for pair ``i``). The base runs first in odd pairs and the working tree in
even ones. It prints every run, and then for each end-to-end metric of
BENCHMARK.json the median and quartiles of each side, the pairs the change
won (ties count for neither), and whether the two rules for claiming a gain
hold: the change wins at least nine tenths of at least ten pairs, and the
medians differ in its favour by more than the base's interquartile range.
It also says whether the change's median is within the metric's
regression bound.
The repository's ``.git`` is only read.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` without touching the checkout."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree of the git repository at ``root`` into ``dest``:
    tracked and untracked files that git does not ignore, as they are on
    disk, uncommitted edits included, and no ``.git``. A tracked file
    deleted from disk is left out."""
    listing = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached",
                              "--others", "--exclude-standard"],
                             check=True, capture_output=True).stdout
    for name in sorted({os.fsdecode(n) for n in listing.split(b"\0") if n}):
        source = root / name
        if not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One ``--trace 0`` run of the benchmark in ``tree``; its result line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(name: str, better: str, bound: float, base: list[float],
              change: list[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - b_med)
    rel = (c_med - b_med) / b_med if b_med else float("nan")
    # The rule is stated over at least ten pairs; fewer never claim a gain.
    win_rule = len(base) >= 10 and wins >= 0.9 * len(base)
    iqr_rule = gain > b_q3 - b_q1
    within = sign * rel >= -bound
    return (f"{name}: base {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]  "
            f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  ({rel:+.1%}, {better} is "
            f"better)  change wins {wins}/{len(base)}  9/10 rule "
            f"{'holds' if win_rule else 'fails'}  IQR rule "
            f"{'holds' if iqr_rule else 'fails'}  within bound {bound} "
            f"{'yes' if within else 'NO'}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 and --seconds > 0")

    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": tmp / "change"}
        export_revision(args.base, trees["base"])
        export_worktree(ROOT, trees["change"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args.workload, seed, args.seconds,
                                  tmp / f"out_{side}")
                runs[side].append(result)
                values = "  ".join(f"{k} {v['value']:.6g}"
                                   for k, v in result["metrics"].items())
                print(f"pair {i + 1} {side:6} seed {seed} failed {result['failed']}/"
                      f"{result['attempted']}  {values}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, base "
          f"{args.base}, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(summarize(name, metric["better"], metric["bound"],
                        [r["metrics"][name]["value"] for r in runs["base"]],
                        [r["metrics"][name]["value"] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
