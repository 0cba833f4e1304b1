"""Benchmark of tripodholo: end-to-end metrics, or per-layer metrics traced.

    python3 benchmarks/run.py --workload gate --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``. One client runs operations in a closed loop: each starts only
after the previous one returned. Every operation's output is checked, a
failure is counted, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the ``end_to_end`` ones of BENCHMARK.json; with ``--trace 1``
the run alternates untraced and traced input cycles, and the metrics are
the ``per_layer`` ones. Spans and a report go to ``.bench_out/`` in the
checkout. See README.md in this directory for the design.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs in this many processes, this one and fresh ones started after
#: it, and the median is reported. A process's set-up is mostly its imports.
SETUP_REPEATS = 5
#: The timed loop runs past its deadline until it holds this many
#: operations, so that p90 has at least 10 samples beyond it.
MIN_TIMED_OPS = 100


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def load_library(root: Path = ROOT):
    """Import tripodholo from ``root/src``, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "tripodholo" / "__init__.py").is_file():
        raise BenchmarkError(f"no tripodholo sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tripodholo

    if Path(tripodholo.__file__).resolve().parent != src / "tripodholo":
        raise BenchmarkError(f"tripodholo imported from {tripodholo.__file__}, "
                             f"not from {src}")
    return tripodholo


def load_spec(root: Path = ROOT) -> dict:
    try:
        return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


@dataclass
class Phase:
    """What one stretch of closed-loop operations measured."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    units: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def throughput(self) -> float:
        return self.units / self.busy_s if self.busy_s else 0.0


def run_ops(workload, phase: Phase, start: int, count: int, *, stream: int = 0,
            tracer=None) -> int:
    """Run ``count`` operations from index ``start``; returns the next index.

    Latency covers the operation only, not building its input or checking
    its output.
    """
    for index in range(start, start + count):
        inp = workload.make_input(index, stream)
        phase.attempted += 1
        try:
            begin = time.perf_counter()
            with tracer.operation() if tracer else contextlib.nullcontext():
                out = workload.run(inp)
            latency = time.perf_counter() - begin
            problems = workload.check(inp, out)
        except Exception as exc:  # a failing operation is counted, never dropped
            phase.failed += 1
            phase.failures.append(f"op {index}: {type(exc).__name__}: {exc}\n"
                                  + traceback.format_exc())
            continue
        phase.latencies.append(latency)
        phase.units += workload.units(out)
        if problems:
            phase.failed += 1
            phase.failures.append(f"op {index}: " + "; ".join(problems))
    return start + count


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def set_up(workload_name: str, seed: int, out_root: Path, repeat: int):
    """Import the library, make the workload and run one checked warm-up.

    Returns the workload, the warm-up's Phase and the seconds from the start
    of this process to the end of the warm-up. Each ``repeat`` warms up on
    its own input, always the first of an input cycle, so that every set-up
    does the same kind of work.
    """
    load_library()
    import workloads

    out_dir = Path(out_root) / workload_name
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](seed, out_dir)
    warmup = Phase()
    run_ops(workload, warmup, repeat * workload.cycle, 1, stream=workloads.WARMUP)
    return workload, warmup, time.perf_counter() - PROCESS_START


def set_up_in_fresh_process(workload_name: str, seed: int, out_root: Path,
                            repeat: int, warmup: Phase) -> float:
    """``set_up`` in a new Python process; adds its warm-up to ``warmup``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--out", str(Path(out_root).resolve()),
         "--setup-repeat", str(repeat)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    warmup.attempted += child["attempted"]
    warmup.failed += child["failed"]
    warmup.failures += child["failures"]
    return child["setup_s"]


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  out_root: Path) -> dict:
    """Set up, measure and check one workload; returns metrics and a report."""
    workload, warmup, own_setup_s = set_up(workload_name, seed, out_root, 0)
    tripodholo = load_library()
    import tracing

    setup_times = [own_setup_s]
    for repeat in range(1, SETUP_REPEATS):
        setup_times.append(set_up_in_fresh_process(workload_name, seed, out_root,
                                                   repeat, warmup))

    # Operations run in whole input cycles, so every run sees the same mix.
    # A traced run alternates untraced and traced cycles; slow drift of the
    # machine's speed then affects both alike.
    deadline = time.perf_counter() + seconds
    plain = Phase()
    traced = Phase()
    tracer = tracing.Tracer()
    index = 0
    while time.perf_counter() < deadline or plain.attempted < MIN_TIMED_OPS:
        index = run_ops(workload, plain, index, workload.cycle)
        if trace:
            with tracer.installed():
                index = run_ops(workload, traced, index, workload.cycle, tracer=tracer)
    if not trace:
        # One traced operation after the measurement finds the worker count.
        with tracer.installed():
            run_ops(workload, traced, index, 1, tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phases = (warmup, plain, traced)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    run_checks = workload.run_checks()
    layers = tracer.layer_metrics(traced.attempted)
    if trace:
        layers["trace.overhead_ratio"] = (traced.throughput / plain.throughput
                                          if plain.throughput else 0.0)
        metrics = layers
    else:
        lat_ms = [1e3 * x for x in plain.latencies]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": percentile(lat_ms, 50) if lat_ms else 0.0,
            "latency_p90_ms": percentile(lat_ms, 90) if lat_ms else 0.0,
            "throughput_per_s": plain.throughput,
            "success_ratio": 1.0 - plain.failed / plain.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    workers = int(layers["experiments.workers"]) or None
    return {
        "correct": failed == 0 and all(run_checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "workload": workload_name,
            "unit": workload.unit,
            "timed_ops": plain.attempted,
            "latency_samples": len(plain.latencies),
            "traced_ops": traced.attempted,
            "run_checks": run_checks,
            "failures": [f for p in phases for f in p.failures],
            "setup_times_s": setup_times,
            "provenance": provenance(tripodholo, seed, workers),
        },
        "tracer": tracer,
    }


def provenance(tripodholo, seed: int, mc_workers: int | None) -> dict:
    """The machine, the software and the inputs a result came from."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    src = Path(tripodholo.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "mc_workers": mc_workers,
        "THREADS": os.environ.get("THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_size(level: int) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def select_metrics(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics, each with its unit; every one must be measured."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for reports, spans and gate outputs")
    # Set up once, print its time and warm-up as JSON, and exit: how a run
    # measures set-up in fresh processes.
    parser.add_argument("--setup-repeat", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; one of {names}")
        if args.setup_repeat is not None:
            _, warmup, setup_s = set_up(args.workload, args.seed, args.out,
                                        args.setup_repeat)
            print(json.dumps({"setup_s": setup_s, "attempted": warmup.attempted,
                              "failed": warmup.failed, "failures": warmup.failures}))
            return 0
        if args.seed < 0 or args.seconds is None or args.seconds <= 0:
            raise BenchmarkError("--seed must be >= 0 and --seconds > 0")
        out_root = args.out
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), out_root)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = select_metrics(result["metrics"], declared)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    report = result["report"]
    out_dir = out_root / args.workload
    if args.trace:
        result["tracer"].write(out_dir / "spans.json")
    (out_dir / f"report_trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=2) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"{report['timed_ops']} timed operations, {report['latency_samples']} "
          f"latency samples, {report['traced_ops']} traced; unit: {report['unit']}")
    for failure in report["failures"][:20]:
        print(f"FAILED {failure.splitlines()[0]}")
    for name, ok in report["run_checks"].items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
