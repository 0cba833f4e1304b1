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
    # It loads none. (The name is older: the spline fit of a perturbed path
    # needed scipy.linalg until perturb took the noise linearly between its
    # knots.)
    assert _noisy_run_modules(tmp_path, "noise-mc", "full_propagation") == []


def test_runs_without_scipy_installed(tmp_path):
    # A None entry in sys.modules makes every import of scipy raise
    # ImportError, as on an install without it: a noiseless gate, noise-mc
    # on both routes and a scaling study still run and pass their checks.
    latitude = "[path]\nfamily = latitude\ntheta0 = 1.0471975511965976\n\n"
    noisy = latitude + "[propagation]\nepsilon = 0.05\n\n[noise]\nsigma = 0.01\ntau = 0.5\n\n"
    configs = {
        "gate": latitude + "[propagation]\nepsilon = 0.05\n",
        "noise-mc": noisy + "[experiment]\nn = 100\nseed = 3\n",
        "noise-mc-full": noisy + "[experiment]\nn = 100\nseed = 3\nmode = full_propagation\n",
        "scaling": noisy + "[experiment]\nn = 100\np = 1\nq = 1\nsigma0 = 0.1\n"
                           "epsilon_grid = 0.02, 0.04, 0.08, 0.2\n",
    }
    argvs = []
    for name, text in configs.items():
        (tmp_path / f"{name}.ini").write_text(text)
        argvs.append([name.removesuffix("-full"), "--config", str(tmp_path / f"{name}.ini"),
                      "--out", str(tmp_path / name)])
    out = run_python(f"""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        from tripodholo import cli
        codes = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps(codes))
    """)
    assert json.loads(out) == [0] * len(configs)


def test_full_propagation_keeps_every_bit_in_fresh_interpreters():
    # A full-propagation ensemble in two fresh interpreters gives the same
    # bytes.
    code = """
        import numpy as np
        from tripodholo import NoiseSpec, latitude_loop, mc_delta
        spec = NoiseSpec.uniform(0.01, 0.5, seed=31)
        res = mc_delta(latitude_loop(np.pi / 2, 1.0), spec, 0.02, 4, "full_propagation")
        assert res.n_excluded == 0
        print(res.deltas.tobytes().hex())
    """
    assert run_python(code) == run_python(code)
