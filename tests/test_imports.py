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
    config = tmp_path / "gate.ini"
    config.write_text("[path]\nfamily = latitude\ntheta0 = 1.0471975511965976\n\n"
                      "[propagation]\nepsilon = 0.05\n")
    out = run_python(f"""
        import contextlib, io, json, sys
        from tripodholo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gate", "--config", {str(config)!r},
                             "--out", {str(tmp_path / "out")!r}])
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    code, modules = json.loads(out)
    assert code == 0
    for name in ("scipy.signal", "scipy.stats", "scipy.interpolate"):
        assert name not in modules


def test_first_scipy_signal_import_on_pool_threads_keeps_every_bit():
    # Full propagation draws its first noise on the pool, so at THREADS=2 two
    # worker threads import scipy.signal at once.
    code = """
        import sys
        import numpy as np
        from tripodholo import NoiseSpec, latitude_loop, mc_delta
        assert "scipy.signal" not in sys.modules
        spec = NoiseSpec.uniform(0.01, 0.5, seed=31)
        res = mc_delta(latitude_loop(np.pi / 2, 1.0), spec, 0.02, 4, "full_propagation")
        assert res.n_excluded == 0
        print(res.deltas.tobytes().hex())
    """
    assert run_python(code, THREADS="2") == run_python(code, THREADS="1")
