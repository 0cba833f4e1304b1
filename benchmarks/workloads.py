"""Benchmark workloads: seeded inputs, one operation each, and its checks.

Every input is drawn from ``(seed, stream, index)``, so operation ``index`` of
a given seed always sees the same input and no two operations of a run share
one. The library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
# The benchmark's own binding: the traced run replaces numpy.random.default_rng
# to count the library's draws, and must not count these.
from numpy.random import default_rng

import tripodholo
from tripodholo import cli, experiments

#: Input streams: timed operations, and the untimed warm-ups of set-up.
TIMED, WARMUP = 0, 1


class Workload:
    """One kind of operation: ``make_input``, ``run`` (timed), ``check``."""

    name = ""
    #: What ``units`` counts, for throughput.
    unit = ""
    #: Inputs repeat their pattern of sizes every ``cycle`` indices.
    cycle = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = int(seed)
        self.out_dir = Path(out_dir)

    def _rng(self, index: int, stream: int) -> np.random.Generator:
        return default_rng([self.seed, stream, index])

    def make_input(self, index: int, stream: int = TIMED):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Reasons the output is wrong; empty when it is correct."""
        raise NotImplementedError

    def units(self, out) -> int:
        return 1

    def run_checks(self) -> dict[str, bool]:
        """Named checks over every operation of the run."""
        return {}


class Gate(Workload):
    """``tripodholo gate`` on a generated INI config, through ``cli.run``."""

    name = "gate"
    unit = "gates"
    cycle = 18
    FAMILIES = ("latitude", "lune", "fourier")
    FRAMES = ("lab", "moving")
    EPSILONS = (0.002, 0.001, 0.0005)
    #: Criterion 01's bounds on the extracted gate.
    MAX_DISTANCE = 0.05
    MAX_LEAKAGE = 0.01

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.run_dir = self.out_dir / "gate_run"

    def make_input(self, index: int, stream: int = TIMED) -> str:
        # Each cycle walks all 18 (family, frame, epsilon) combinations.
        family = self.FAMILIES[index % 3]
        frame = self.FRAMES[(index // 3) % 2]
        epsilon = self.EPSILONS[(index // 6) % 3]
        rng = self._rng(index, stream)
        if family == "latitude":
            path = [f"theta0 = {rng.uniform(0.3, 2.8)!r}"]
        elif family == "lune":
            path = [f"dphi = {rng.uniform(0.5, 5.5)!r}", "delta = 0.001"]
        else:
            path = [
                f"theta_offset = {rng.uniform(1.0, 2.1)!r}",
                "theta_sin = " + _csv(rng.uniform(-0.15, 0.15, 2)),
                "theta_cos = " + _csv(rng.uniform(-0.15, 0.15, 2)),
                "phi_winding = 1",
                "phi_sin = " + _csv(rng.uniform(-0.2, 0.2, 2)),
                f"r_slope = {rng.uniform(0.0, 0.5)!r}",
            ]
        return "\n".join([
            "[path]", f"family = {family}", *path, "",
            "[propagation]", f"epsilon = {epsilon!r}", f"frame = {frame}", "",
            "[output]", f"dir = {self.run_dir}", "",
        ])

    def run(self, text: str) -> int:
        config = cli.parse_config(text, "gate")
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(config)

    def check(self, text: str, code: int) -> list[str]:
        summary_path = self.run_dir / "summary.json"
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        # A stale summary must not pass for the next operation's.
        summary_path.unlink()
        results = summary["results"]
        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        failures += [f"check failed: {c['name']}" for c in results["checks"]
                     if not c["passed"]]
        if not results["distance_to_ideal"] < self.MAX_DISTANCE:
            failures.append(f"distance_to_ideal {results['distance_to_ideal']:.3g}")
        if not results["leakage"] < self.MAX_LEAKAGE:
            failures.append(f"leakage {results['leakage']:.3g}")
        return failures


class McFull(Workload):
    """Full-propagation Monte Carlo at criterion 09's parameters."""

    name = "mc_full"
    unit = "realizations"
    N = 10
    SIGMA, TAU, EPSILON = 0.01, 0.05, 0.02
    MAX_DELTA_OVER_ANALYTIC = 8.0
    #: Full propagation exceeds the first-order Delta by a parameter-independent
    #: factor (criterion 09 measures 1.24); the pooled ratio must stay in here.
    POOLED_RATIO = (1.0, 1.5)

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.path = tripodholo.latitude_loop(np.pi / 2)
        #: Every checked ensemble's deltas, in units of its analytic Delta.
        self.ratios: list[np.ndarray] = []

    def make_input(self, index: int, stream: int = TIMED):
        seed = int(self._rng(index, stream).integers(2 ** 62))
        return tripodholo.NoiseSpec.uniform(self.SIGMA, self.TAU, seed=seed)

    def run(self, spec):
        return experiments.mc_delta(self.path, spec, self.EPSILON, n=self.N,
                                    mode="full_propagation")

    def units(self, mc) -> int:
        return mc.n_realizations

    def check(self, spec, mc) -> list[str]:
        self.ratios.append(mc.deltas / mc.analytic_delta)
        failures = []
        if mc.n_excluded != 0:
            failures.append(f"{mc.n_excluded} realizations excluded")
        if not np.all(np.isfinite(mc.deltas)):
            failures.append("non-finite delta")
        worst = float(np.max(np.abs(mc.deltas)))
        if not worst <= self.MAX_DELTA_OVER_ANALYTIC * mc.analytic_delta:
            failures.append(f"|delta| {worst:.3g} above "
                            f"{self.MAX_DELTA_OVER_ANALYTIC} x analytic")
        return failures

    def pooled_ratio(self) -> float:
        """Spread of every pooled delta, in units of its analytic Delta."""
        ratios = np.concatenate(self.ratios) if self.ratios else np.empty(0)
        return float(np.std(ratios, ddof=1)) if ratios.size > 1 else math.nan

    def run_checks(self) -> dict[str, bool]:
        lo, hi = self.POOLED_RATIO
        return {f"pooled Delta_full / analytic in [{lo}, {hi}]":
                bool(lo <= self.pooled_ratio() <= hi)}


WORKLOADS = {w.name: w for w in (Gate, McFull)}


def _csv(values) -> str:
    return ", ".join(repr(float(v)) for v in values)
