"""What importing and running the library loads, each check in a fresh
interpreter so no other test's imports leak in."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, **env) -> str:
    """Run code in a new interpreter with src on its path; its stdout."""
    environ = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=environ,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = run_python("""
        import json, sys
        import tripodholo, tripodholo.cli
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    assert json.loads(out) == []


def test_noiseless_gate_run_loads_no_noise_or_spline_scipy(tmp_path):
    # Nor any other scipy module: noiseless gate and holonomy runs need none.
    config = tmp_path / "gate.ini"
    config.write_text("[path]\nfamily = latitude\ntheta0 = 1.0471975511965976\n\n"
                      "[propagation]\nepsilon = 0.05\n")
    for subcommand in ("gate", "holonomy"):
        out = run_python(f"""
            import contextlib, io, json, sys
            from tripodholo import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([{subcommand!r}, "--config", {str(config)!r},
                                 "--out", {str(tmp_path / subcommand)!r}])
            print(json.dumps([code, sorted(m for m in sys.modules
                                           if m == "scipy" or m.startswith("scipy."))]))
        """)
        assert json.loads(out) == [0, []], subcommand


def _noisy_run_modules(tmp_path, subcommand: str, mode: str) -> list[str]:
    """The scipy modules loaded by one small noisy CLI run on a latitude loop."""
    config = tmp_path / f"{subcommand}-{mode}.ini"
    experiment = {"noise-mc": "n = 100\nseed = 3\n",
                  "scaling": "n = 100\np = 1\nq = 1\nsigma0 = 0.1\n"
                             "epsilon_grid = 0.02, 0.04, 0.08, 0.2\n"}[subcommand]
    config.write_text("[path]\nfamily = latitude\ntheta0 = 1.0471975511965976\n\n"
                      "[propagation]\nepsilon = 0.05\n\n"
                      "[noise]\nsigma = 0.01\ntau = 0.5\n\n"
                      f"[experiment]\n{experiment}mode = {mode}\n")
    out = run_python(f"""
        import contextlib, io, json, sys
        from tripodholo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([{subcommand!r}, "--config", {str(config)!r},
                             "--out", {str(tmp_path / (subcommand + mode))!r}])
        print(json.dumps([code, sorted(m for m in sys.modules
                                       if m == "scipy" or m.startswith("scipy."))]))
    """)
    code, modules = json.loads(out)
    assert code in (0, 3), (subcommand, mode, code)
    return modules


def test_first_order_noisy_runs_load_no_scipy(tmp_path):
    for subcommand in ("noise-mc", "scaling"):
        assert _noisy_run_modules(tmp_path, subcommand, "first_order") == [], subcommand


def test_full_propagation_loads_only_the_spline_scipy(tmp_path):
    # The spline's banded solve is the one scipy call left; its evaluation
    # is numpy's. scipy's private modules (scipy._lib, scipy.__config__ and
    # the like) and scipy.version come with any scipy import.
    modules = _noisy_run_modules(tmp_path, "noise-mc", "full_propagation")
    top = {m.split(".")[1] for m in modules if m.startswith("scipy.")}
    assert {m for m in top if not m.startswith("_")} - {"version"} == {"linalg"}


def test_first_scipy_signal_import_on_pool_threads_keeps_every_bit():
    # Full propagation perturbs its first path on the pool, so at THREADS=2
    # two worker threads import scipy.linalg, through paths.perturb, at
    # once. (The name is older: scipy.signal was the first import until the
    # noise filter moved to numpy, then scipy.interpolate joined scipy.linalg
    # until the spline's evaluation did too.)
    code = """
        import sys
        import numpy as np
        from tripodholo import NoiseSpec, latitude_loop, mc_delta
        assert "scipy.linalg" not in sys.modules
        spec = NoiseSpec.uniform(0.01, 0.5, seed=31)
        res = mc_delta(latitude_loop(np.pi / 2, 1.0), spec, 0.02, 4, "full_propagation")
        assert res.n_excluded == 0
        print(res.deltas.tobytes().hex())
    """
    assert run_python(code, THREADS="2") == run_python(code, THREADS="1")
