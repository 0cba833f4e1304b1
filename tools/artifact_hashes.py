"""SHA-256 hashes of everything the CLI writes, over a fixed set of configs.

    python3 tools/artifact_hashes.py               # print `name sha256` lines
    THREADS=2 python3 tools/artifact_hashes.py --base HEAD

Each config of ``configs()`` runs through ``tripodholo.cli.main`` into a
fresh directory, and one line ``<config>/<entry> <sha256>`` is printed for
its stdout, its stderr, its exit code and every file it wrote except
``run_meta.json``, the one file allowed to differ between reruns. The set
covers all six subcommands: the 36 ``Gate`` benchmark inputs at seed 1234,
``holonomy`` on a lune and a fourier path, ``noise-mc`` on each of its four
routes (interval engine, direct sampler, exact-bridge pinning, full
propagation, the last on latitude loops, a lune and a fourier path), the
three fitted studies with ``scaling`` in both modes, and runs that exit 2
or 3.

``--base REV`` exports REV with ``bench_pairs.export_revision``, hashes the
same configs against its ``src/`` and against this checkout's, each in its
own process, prints only the entries that differ (``<name> <base> <change>``,
``-`` for a missing entry) and exits 1 if any differ. ``THREADS`` is read
from the environment as in any run, so set it to compare thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EQUATOR = "family = latitude\ntheta0 = 1.5707963267948966\n"
SIXTY = "family = latitude\ntheta0 = 1.0471975511965976\n"


def _ini(path: str, experiment: str, propagation: str = "", noise: str = "") -> str:
    return (f"[path]\n{path}\n[propagation]\n{propagation}\n[noise]\n{noise}\n"
            f"[experiment]\n{experiment}\n")


def configs() -> dict[str, tuple[str, str]]:
    """Name -> (subcommand, INI text) of every hashed run."""
    sys.path.insert(0, str(ROOT))
    from benchmarks.workloads import Gate

    gate = Gate(1234, Path("unused"))
    runs = {f"gate-{i:02d}": ("gate", gate.make_input(i)) for i in range(36)}
    runs.update({
        "gate-leaky": ("gate", _ini(EQUATOR, "", "epsilon = 0.05")),
        "gate-step-limit": ("gate", _ini(SIXTY, "", "epsilon = 1e-9")),
        "holonomy-lune": ("holonomy", _ini(
            "family = lune\ndphi = 1.5707963267948966\ndelta = 0.0001", "")),
        "holonomy-fourier": ("holonomy", _ini(
            "family = fourier\ntheta_offset = 1.2\ntheta_sin = 0.25\n"
            "phi_sin = 0.2\nr_slope = 0.5", "")),
        "noise-mc-interval": ("noise-mc", _ini(
            EQUATOR, "n = 200\nseed = 3", "epsilon = 0.02",
            "sigma = 0.01\ntau = 0.01")),
        "noise-mc-direct-ramp": ("noise-mc", _ini(
            EQUATOR, "n = 200\nseed = 5", "epsilon = 0.05", "sigma = 0.01\ntau = 1")),
        "noise-mc-direct-none": ("noise-mc", _ini(
            EQUATOR, "n = 200\nseed = 5", "epsilon = 0.05",
            "sigma = 0.01\ntau = 1\npinning = none")),
        "noise-mc-bridge": ("noise-mc", _ini(
            EQUATOR, "n = 200\nseed = 7", "epsilon = 0.05",
            "sigma = 0.01\ntau = 0.1\npinning = exact-bridge")),
        "noise-mc-full-ramp": ("noise-mc", _ini(
            SIXTY, "n = 100\nmode = full_propagation\nseed = 9", "epsilon = 0.05",
            "sigma = 0.01\ntau = 0.5")),
        "noise-mc-full-bridge": ("noise-mc", _ini(
            SIXTY, "n = 100\nmode = full_propagation\nseed = 9", "epsilon = 0.05",
            "sigma = 0.01\ntau = 0.5\npinning = exact-bridge")),
        "noise-mc-full-lune": ("noise-mc", _ini(
            "family = lune\ndphi = 2.0\ndelta = 0.3",
            "n = 100\nmode = full_propagation\nseed = 11", "epsilon = 0.02",
            "sigma = 0.01\ntau = 0.5")),
        "noise-mc-full-fourier": ("noise-mc", _ini(
            "family = fourier\ntheta_offset = 1.2\ntheta_sin = 0.25\nphi_sin = 0.2\n"
            "r_slope = 0.5", "n = 100\nmode = full_propagation\nseed = 12", "epsilon = 0.02",
            "sigma = 0.01\ntau = 0.5\npinning = exact-bridge")),
        "noise-mc-excluded": ("noise-mc", _ini(
            "family = latitude\ntheta0 = 1.0", "n = 100\nmode = full_propagation",
            "epsilon = 0.1", "sigma = 0.01\ntau = 0.5")),
        "timing": ("timing", _ini(SIXTY, "delta_t = 1.0\nt0_grid = 100, 200, 400")),
        "timing-fail": ("timing", _ini(
            SIXTY, "delta_t = 1.0\nt0_grid = 100, 200, 400\ntolerance = 0.0001")),
        "convergence": ("convergence", _ini(SIXTY, "epsilon_grid = 0.2, 0.1, 0.05")),
        "scaling-first-order": ("scaling", _ini(
            EQUATOR, "n = 200\nepsilon_min = 0.005\nepsilon_max = 0.1\n"
                     "points_per_decade = 3\nseed = 4")),
        "scaling-full": ("scaling", _ini(
            SIXTY, "n = 100\nmode = full_propagation\nsigma0 = 0.1\n"
                   "epsilon_grid = 0.005, 0.01, 0.02, 0.05\nseed = 6")),
    })
    return runs


def hash_runs(runs: dict[str, tuple[str, str]], workdir: Path) -> dict[str, str]:
    """Run each config through cli.main under ``workdir``; entry -> sha256."""
    from tripodholo import cli

    workdir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, (subcommand, text) in runs.items():
        config = workdir / f"{name}.ini"
        config.write_text(text, encoding="utf-8")
        out_dir = workdir / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([subcommand, "--config", str(config), "--out", str(out_dir)])
        entries = {"stdout": stdout.getvalue().encode(),
                   "stderr": stderr.getvalue().encode(),
                   "exit": str(code).encode()}
        if out_dir.is_dir():
            entries.update((f.name, f.read_bytes()) for f in sorted(out_dir.iterdir())
                           if f.name != "run_meta.json")
        for entry, data in entries.items():
            hashes[f"{name}/{entry}"] = hashlib.sha256(data).hexdigest()
    return hashes


def _hashes_of(src: Path) -> dict[str, str]:
    """The hash lines of a run of this script against ``src``, in its own process."""
    proc = subprocess.run([sys.executable, __file__, "--src", str(src)],
                          check=True, capture_output=True, text=True)
    return dict(line.split(" ") for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None,
                        help="git revision to compare with; print only differences")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory of the tripodholo package to hash")
    args = parser.parse_args(argv)
    if args.base is None:
        sys.path.insert(0, str(args.src.resolve()))
        with tempfile.TemporaryDirectory(prefix="artifact_hashes_") as tmp:
            for name, digest in hash_runs(configs(), Path(tmp)).items():
                print(name, digest)
        return 0

    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import export_revision

    with tempfile.TemporaryDirectory(prefix="artifact_hashes_") as tmp:
        export_revision(args.base, Path(tmp))
        base = _hashes_of(Path(tmp) / "src")
    change = _hashes_of(args.src)
    differ = sorted(k for k in base.keys() | change.keys() if base.get(k) != change.get(k))
    for name in differ:
        print(name, base.get(name, "-"), change.get(name, "-"))
    print(f"{len(differ)} of {len(base.keys() | change.keys())} entries differ "
          f"from {args.base}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
