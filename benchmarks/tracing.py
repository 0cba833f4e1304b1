"""Layer tracing from outside the library.

The tracer replaces public functions of ``tripodholo`` with timing wrappers at
every module attribute that binds them, records one span per call, and puts
the originals back when it is uninstalled. Nothing under ``src/`` knows about
it. Spans stay in memory as ``(id, name, parent, thread, start, end)`` tuples
and are written out once, when the benchmark ends.

A span on a pool thread has no parent on its own thread; its parent is the
innermost span open on the main thread, which is the ``mc_delta`` call that
is blocked waiting for the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

#: The benchmark's own span around one operation; not a library layer.
OP_SPAN = "bench.op"

#: Modules whose self time is reported as a layer share.
LAYERS = ("tripod", "propagator", "paths", "holonomy", "quadrature", "noise",
          "experiments", "cli")


def _rows(args, kwargs, result):
    return result.shape[0], result.nbytes


def _perturb_points(args, kwargs, result):
    return (len(result.grid),)


def _realization_points(args, kwargs, result):
    return (result.dx.shape[0],)


def _draws(args, kwargs, result):
    return (np.size(result),)


def _ensemble(args, kwargs, result):
    return result.n_realizations, result.n_realizations - result.n_excluded


def _bytes_written(args, kwargs, result):
    out_dir = Path(args[0].out_dir)
    return (sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),)


@dataclass(frozen=True)
class Target:
    """A library attribute to wrap.

    ``attr`` may be dotted to reach a method. With ``every_binding`` the same
    object is also wrapped wherever another ``tripodholo`` module binds it
    (re-exports such as ``tripodholo.mc_delta``, or ``holonomy.integrate_path``
    imported from ``quadrature``); without it only this one binding is, which
    keeps ``noise``'s binding of ``scipy.signal.lfilter`` apart from the one in
    ``experiments``.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None
    stats: tuple[str, ...] = ()
    every_binding: bool = True


TARGETS = (
    Target("tripodholo.tripod", "step_unitaries", "tripod.step_unitaries", _rows,
           ("rows", "bytes_out")),
    Target("tripodholo.propagator", "evolve_lab", "propagator.evolve_lab"),
    Target("tripodholo.propagator", "evolve_to_nominal", "propagator.evolve_to_nominal"),
    Target("tripodholo.propagator", "evolve_moving", "propagator.evolve_moving"),
    Target("tripodholo.propagator", "extract_logical_gate",
           "propagator.extract_logical_gate"),
    Target("tripodholo.paths", "ControlPath.x", "paths.ControlPath.x"),
    Target("tripodholo.paths", "perturb", "paths.perturb", _perturb_points, ("points",)),
    Target("tripodholo.holonomy", "solid_angle", "holonomy.solid_angle"),
    Target("tripodholo.holonomy", "angle_response_kernel",
           "holonomy.angle_response_kernel"),
    Target("tripodholo.holonomy", "delta_variance_analytic",
           "holonomy.delta_variance_analytic"),
    Target("tripodholo.quadrature", "integrate_path", "quadrature.integrate_path"),
    Target("tripodholo.noise", "sample_realization", "noise.sample_realization",
           _realization_points, ("points",)),
    Target("tripodholo.noise", "lfilter", "noise.lfilter", every_binding=False),
    Target("tripodholo.experiments", "mc_delta", "experiments.mc_delta", _ensemble,
           ("realizations", "kept")),
    Target("tripodholo.cli", "parse_config", "cli.parse_config"),
    Target("tripodholo.cli", "run", "cli.run", _bytes_written, ("bytes_written",)),
)


#: Draws through numpy.random.default_rng, which the tracer replaces by a
#: function handing out counting generators.
RNG_TARGET = Target("numpy.random", "default_rng", "rng.standard_normal", _draws,
                    ("draws",))


class _CountingGenerator:
    """Stands in for a numpy Generator; times and counts standard_normal."""

    def __init__(self, generator, standard_normal):
        self._generator = generator
        self._standard_normal = standard_normal

    def standard_normal(self, *args, **kwargs):
        return self._standard_normal(self._generator, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    """Spans and counts for the library calls made inside operations.

    Calls are recorded only while an operation is open (see ``operation``),
    so inputs the benchmark builds between operations are not traced.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, name: str, count=None):
        """A function that calls ``fn`` and records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._main_stack:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, threading.get_ident(),
                                     start, end))
            if count is not None:
                tracer.counts[sid] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def operation(self):
        """Open the benchmark's span around one operation."""
        sid = next(self._ids)
        self._main_stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, OP_SPAN, None, self._main_thread, start, end))

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every target, and numpy.random.default_rng, for the block."""
        try:
            self._install()
            yield self
        finally:
            self.uninstall()

    def _install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tripodholo"
                                         or name.startswith("tripodholo."))]
        for target in TARGETS:
            holder = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                holder = getattr(holder, part)
            original = getattr(holder, attr, None)
            if original is None:
                continue  # the library no longer has it; its metrics read 0
            wrapper = self.wrap(original, target.span, target.count)
            self._patch(holder, attr, wrapper)
            if not target.every_binding:
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

        original_rng = np.random.default_rng
        standard_normal = self.wrap(lambda gen, *a, **k: gen.standard_normal(*a, **k),
                                    RNG_TARGET.span, RNG_TARGET.count)

        @functools.wraps(original_rng)
        def counting_default_rng(*args, **kwargs):
            return _CountingGenerator(original_rng(*args, **kwargs), standard_normal)

        self._patch(np.random, "default_rng", counting_default_rng)

    def uninstall(self) -> None:
        """Put back every original attribute, last patch first."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans and their counts as one JSON document."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "columns": ["id", "name", "parent", "thread", "start_s", "end_s"],
            "names": names,
            "spans": [[sid, index[name], parent, tid, start, end]
                      for sid, name, parent, tid, start, end in self.spans],
            "counts": {str(k): list(v) for k, v in self.counts.items()},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n",
                        encoding="utf-8")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per operation.

        Self time is a span's duration minus its child spans on the same
        thread. A span whose children ran on pool threads also waits for
        them: ``wait`` is the part of its interval those children cover. Layer
        shares use self time minus wait, so waiting is not counted as work.
        """
        by_id = {s[0]: s for s in self.spans}
        stats = {t.span: t.stats for t in TARGETS + (RNG_TARGET,)}
        same_thread = defaultdict(float)
        pooled = defaultdict(list)
        for sid, _name, parent, tid, start, end in self.spans:
            if parent is None or parent not in by_id:
                continue
            if by_id[parent][3] == tid:
                same_thread[parent] += end - start
            else:
                pooled[parent].append((start, end, tid))

        calls = defaultdict(int)
        self_s = defaultdict(float)
        wait_s = defaultdict(float)
        totals = defaultdict(float)
        layer_busy = defaultdict(float)
        for sid, name, parent, tid, start, end in self.spans:
            if name == OP_SPAN:
                continue
            own = end - start - same_thread[sid]
            wait = _covered(start, end, pooled[sid])
            calls[name] += 1
            self_s[name] += own
            wait_s[name] += wait
            layer_busy[self._layer(sid, by_id)] += max(0.0, own - wait)
            for key, value in zip(stats[name], self.counts.get(sid, ())):
                totals[f"{name}.{key}"] += value

        per_op = 1.0 / max(n_ops, 1)
        out: dict[str, float] = {}
        for name, keys in stats.items():
            out[f"{name}.calls"] = calls[name] * per_op
            out[f"{name}.self_s"] = self_s[name] * per_op
            for key in keys:
                out[f"{name}.{key}"] = totals[f"{name}.{key}"] * per_op
        out["experiments.mc_delta.wait_s"] = wait_s["experiments.mc_delta"] * per_op

        realizations = totals["experiments.mc_delta.realizations"]
        out["experiments.mc_delta.kept_ratio"] = (
            totals["experiments.mc_delta.kept"] / realizations if realizations else 0.0)
        busy, capacity, workers = 0.0, 0.0, 0
        for sid, name, _parent, tid, start, end in self.spans:
            if name != "experiments.mc_delta":
                continue
            children = pooled[sid]
            threads = len({c[2] for c in children}) or 1
            workers = max(workers, threads)
            busy += (sum(c[1] - c[0] for c in children) if children
                     else same_thread[sid])
            capacity += (end - start) * threads
        out["experiments.mc_delta.busy_fraction"] = busy / capacity if capacity else 0.0
        out["experiments.workers"] = float(workers)

        steps = totals["tripod.step_unitaries.rows"]
        propagating = sum(
            end - start for sid, name, parent, _tid, start, end in self.spans
            if name.startswith("propagator.evolve")
            and not by_id.get(parent, (0, ""))[1].startswith("propagator."))
        out["propagator.steps_per_s"] = steps / propagating if propagating else 0.0

        all_busy = sum(layer_busy.values())
        for layer in LAYERS:
            out[f"layer.{layer}.self_share"] = (
                layer_busy[layer] / all_busy if all_busy else 0.0)
        return out

    @staticmethod
    def _layer(sid: int, by_id: dict) -> str:
        """Module of a span; RNG draws belong to the layer that made them."""
        span = by_id[sid]
        while span[1].startswith("rng.") and span[2] in by_id:
            span = by_id[span[2]]
        return span[1].split(".", 1)[0]


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi, _tid in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
