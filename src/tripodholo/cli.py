"""Experiment runner: declarative configs in, deterministic artifacts out.

Configs are INI-style sections of key = value lines with flat types only
(finite numbers, strings, comma-separated number lists). Every run writes a
summary.json (schema_version 1), CSV data files with a fixed header, and
two-column plot-data files for fitted laws; all of them are byte-identical
across reruns and worker-thread counts. Wall-clock metadata lives apart in
run_meta.json, which carries the only timestamp.

Exit codes: 0 success, 2 config error, 3 numerical-contract violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import experiments, holonomy, noise, paths, propagator

SUBCOMMANDS = ("gate", "holonomy", "noise-mc", "scaling", "timing", "convergence")
SCHEMA_VERSION = 1

_DEFAULT_CONVERGENCE_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)
_DEFAULT_T0_GRID = (100.0, 200.0, 400.0, 800.0)
#: Default pass tolerances of the fitted studies' checks.
_DEFAULT_TOLERANCE = {"scaling": 0.15, "timing": 0.2, "convergence": 0.8}


class ConfigError(Exception):
    """Invalid run configuration; the message names the key and line."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run; parse_config fills every field."""

    subcommand: str
    family: str
    theta0: float | None
    r0: float
    dphi: float | None
    delta: float
    f_theta: paths.Harmonics | None
    f_phi: paths.Harmonics | None
    f_r: paths.Harmonics | None
    epsilon: float
    steps_per_unit_time: int
    frame: str
    sigma: tuple[float, float, float]
    tau: tuple[float, float, float]
    pinning: str
    n: int
    mode: str
    p: float
    q: float
    tau0: float
    sigma0: float
    epsilon_grid: tuple[float, ...]
    delta_t: float
    t0_grid: tuple[float, ...]
    tolerance: float | None
    seed: int
    out_dir: str


def _parse_ini(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


class _Section:
    """Typed, strict access to one config section."""

    def __init__(self, name: str, raw: dict[str, tuple[str, int]]):
        self.name = name
        self.raw = raw
        self.seen: set[str] = set()

    def _fetch(self, key: str):
        self.seen.add(key)
        return self.raw.get(key)

    def _fail(self, key: str, message: str):
        item = self.raw.get(key)
        where = f"line {item[1]}: " if item else ""
        raise ConfigError(f"{where}[{self.name}] {key}: {message}")

    def string(self, key: str, default=None, choices=None):
        item = self._fetch(key)
        if item is None:
            return default
        value = item[0]
        if choices is not None and value not in choices:
            self._fail(key, f"must be one of {', '.join(choices)}")
        return value

    def floating(self, key: str, default=None, minimum=None, maximum=None,
                 exclusive_min=False, exclusive_max=False):
        item = self._fetch(key)
        if item is None:
            return default
        try:
            value = float(item[0])
        except ValueError:
            self._fail(key, f"not a number: {item[0]!r}")
        if not np.isfinite(value):
            self._fail(key, f"must be finite, got {item[0]!r}")
        if minimum is not None and (value <= minimum if exclusive_min else value < minimum):
            self._fail(key, f"must be {'>' if exclusive_min else '>='} {minimum}")
        if maximum is not None and (value >= maximum if exclusive_max else value > maximum):
            self._fail(key, f"must be {'<' if exclusive_max else '<='} {maximum}")
        return value

    def integer(self, key: str, default=None, minimum=None):
        item = self._fetch(key)
        if item is None:
            return default
        try:
            value = int(item[0])
        except ValueError:
            self._fail(key, f"not an integer: {item[0]!r}")
        if minimum is not None and value < minimum:
            self._fail(key, f"must be >= {minimum}")
        return value

    def floats(self, key: str, default=()):
        item = self._fetch(key)
        if item is None:
            return None if default is None else tuple(default)
        text = item[0].strip()
        if not text:
            return ()
        try:
            values = tuple(float(part) for part in text.split(","))
        except ValueError:
            self._fail(key, f"not a comma-separated number list: {item[0]!r}")
        if not np.all(np.isfinite(values)):
            self._fail(key, f"values must be finite, got {item[0]!r}")
        return values

    def reject_unknown(self):
        for key, (_, lineno) in self.raw.items():
            if key not in self.seen:
                raise ConfigError(f"line {lineno}: unknown key '{key}' in [{self.name}]")


def parse_config(text: str, subcommand: str | None = None) -> RunConfig:
    """Parse and fully validate a config document into a RunConfig.

    Unknown sections or keys are rejected. The subcommand may come from the
    command line, from the [experiment] section, or both if they agree.
    """
    raw = _parse_ini(text)
    known = {"path", "propagation", "noise", "experiment", "output"}
    for name in raw:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    secs = {name: _Section(name, raw.get(name, {})) for name in known}

    exp = secs["experiment"]
    config_sub = exp.string("subcommand", default=None, choices=SUBCOMMANDS)
    if subcommand is None and config_sub is None:
        raise ConfigError("no subcommand given on the command line or in [experiment]")
    if subcommand is not None and config_sub is not None and subcommand != config_sub:
        raise ConfigError(
            f"subcommand mismatch: '{subcommand}' on the command line, "
            f"'{config_sub}' in [experiment]"
        )
    sub = subcommand or config_sub

    pathsec = secs["path"]
    family = pathsec.string("family", default=None, choices=("latitude", "lune", "fourier"))
    if family is None:
        raise ConfigError("[path] family is required (latitude | lune | fourier)")
    # The echo of every family carries the latitude's r0 and the lune's delta.
    theta0 = dphi = None
    r0, delta = 1.0, 1e-3
    f_theta = f_phi = f_r = None
    if family == "latitude":
        theta0 = pathsec.floating("theta0", default=None, minimum=0.0, exclusive_min=True,
                                  maximum=float(np.pi), exclusive_max=True)
        if theta0 is None:
            raise ConfigError("[path] theta0 is required for the latitude family "
                              "(strictly between 0 and pi)")
        r0 = pathsec.floating("r0", default=r0, minimum=0.0, exclusive_min=True)
    elif family == "lune":
        dphi = pathsec.floating("dphi", default=None, minimum=0.0, exclusive_min=True,
                                maximum=float(2.0 * np.pi), exclusive_max=True)
        if dphi is None:
            raise ConfigError("[path] dphi is required for the lune family "
                              "(strictly between 0 and 2 pi)")
        delta = pathsec.floating("delta", default=delta, minimum=0.0, exclusive_min=True)
    else:
        f_theta = paths.Harmonics(
            offset=pathsec.floating("theta_offset", default=None),
            sin=pathsec.floats("theta_sin"),
            cos=pathsec.floats("theta_cos"),
        )
        if f_theta.offset is None:
            raise ConfigError("[path] theta_offset is required for the fourier family")
        f_phi = paths.Harmonics(
            offset=pathsec.floating("phi_offset", default=0.0),
            slope=2.0 * np.pi * pathsec.integer("phi_winding", default=1),
            sin=pathsec.floats("phi_sin"),
            cos=pathsec.floats("phi_cos"),
        )
        f_r = paths.Harmonics(
            offset=pathsec.floating("r_offset", default=1.0),
            slope=pathsec.floating("r_slope", default=0.0),
            sin=pathsec.floats("r_sin"),
            cos=pathsec.floats("r_cos"),
        )
    pathsec.reject_unknown()

    prop = secs["propagation"]
    epsilon = prop.floating("epsilon", default=0.05, minimum=0.0, exclusive_min=True)
    spu = prop.integer("steps_per_unit_time", default=propagator.STEPS_PER_UNIT_TIME,
                       minimum=1)
    frame = prop.string("frame", default="lab", choices=("lab", "moving"))
    prop.reject_unknown()

    noisesec = secs["noise"]
    sigma = _triple(noisesec, "sigma", (0.0, 0.0, 0.0))
    if any(s < 0 for s in sigma):
        noisesec._fail("sigma", "components must be nonnegative")
    tau = _triple(noisesec, "tau", (1.0, 1.0, 1.0))
    if any(t < noise._TAU_MIN for t in tau):
        noisesec._fail("tau", f"components must be positive, and at least the "
                              f"smallest normal float {noise._TAU_MIN!r}")
    pinning = noisesec.string("pinning", default="endpoint-ramp",
                              choices=noise.PINNING_MODES)
    noisesec.reject_unknown()

    n = exp.integer("n", default=1000, minimum=100)
    mode = exp.string("mode", default="first_order", choices=experiments.MC_MODES)
    p = exp.floating("p", default=0.5, minimum=0.0, exclusive_min=True)
    q = exp.floating("q", default=0.5, minimum=0.0, exclusive_min=True)
    tau0 = exp.floating("tau0", default=1.0, minimum=0.0, exclusive_min=True)
    sigma0 = exp.floating("sigma0", default=1.0, minimum=0.0)
    eps_grid = exp.floats("epsilon_grid", default=None)
    eps_min = exp.floating("epsilon_min", default=None, minimum=0.0, exclusive_min=True)
    eps_max = exp.floating("epsilon_max", default=None, minimum=0.0, exclusive_min=True)
    ppd = exp.integer("points_per_decade", default=5, minimum=2)
    if eps_grid is not None and (eps_min is not None or eps_max is not None):
        raise ConfigError("[experiment] give either epsilon_grid or "
                          "epsilon_min/epsilon_max, not both")
    if (eps_min is None) != (eps_max is None):
        raise ConfigError("[experiment] epsilon_min and epsilon_max go together")
    if eps_min is not None:
        if eps_max <= eps_min:
            raise ConfigError("[experiment] epsilon_max must exceed epsilon_min")
        count = int(round(ppd * np.log10(eps_max / eps_min))) + 1
        eps_grid = tuple(float(e) for e in np.geomspace(eps_min, eps_max, count))
    if eps_grid is None:
        eps_grid = _DEFAULT_CONVERGENCE_GRID if sub == "convergence" else tuple(
            float(e) for e in np.geomspace(1e-3, 1e-1, 11))
    if any(e <= 0 for e in eps_grid):
        raise ConfigError("[experiment] epsilon_grid values must be positive")
    delta_t = exp.floating("delta_t", default=1.0)
    t0_grid = exp.floats("t0_grid", default=_DEFAULT_T0_GRID)
    if any(t <= 0 for t in t0_grid):
        raise ConfigError("[experiment] t0_grid values must be positive")
    tolerance = exp.floating("tolerance", default=None, minimum=0.0, exclusive_min=True)
    seed = exp.integer("seed", default=0, minimum=0)
    exp.reject_unknown()

    if (sub in ("noise-mc", "scaling") and mode == "full_propagation"
            and pinning == "none"):
        noisesec._fail("pinning", "full_propagation needs pinned noise "
                                  "(endpoint-ramp or exact-bridge): unpinned "
                                  "noise does not close the loop")
    if sub == "timing" and delta_t == 0.0:
        raise ConfigError("[experiment] delta_t must be nonzero for the timing study")
    if sub == "scaling" and len(eps_grid) < 4:
        raise ConfigError("[experiment] the scaling study needs >= 4 epsilon points")
    if sub == "convergence" and len(eps_grid) < 3:
        raise ConfigError("[experiment] epsilon_grid needs >= 3 points")
    if sub == "timing" and len(t0_grid) < 3:
        raise ConfigError("[experiment] t0_grid needs >= 3 points")
    # The studies' own preconditions, checked on the resolved grids so that
    # the error names the config key rather than surfacing mid-run.
    grid_key = "epsilon_grid" if eps_min is None else "epsilon_max"
    if sub == "scaling" and max(eps_grid) > 1.0:
        exp._fail(grid_key, f"the scaling study needs epsilon in (0, 1], "
                            f"got {max(eps_grid):g}")
    if sub == "scaling" and max(eps_grid) / min(eps_grid) < 10.0:
        exp._fail(grid_key, f"the scaling study needs epsilon to span at least "
                            f"one decade, got {min(eps_grid):g} to {max(eps_grid):g}")
    if sub == "scaling" and tau0 * min(eps_grid) ** p < noise._TAU_MIN:
        exp._fail("tau0", f"tau = tau0 * min(epsilon)^p = {tau0 * min(eps_grid) ** p:g} "
                          f"is below the smallest normal float {noise._TAU_MIN!r}")
    if sub == "timing" and abs(delta_t) >= 0.5 * min(t0_grid):
        exp._fail("delta_t" if "delta_t" in exp.raw else "t0_grid",
                  f"|delta_t| = {abs(delta_t):g} must be below "
                  f"{0.5 * min(t0_grid):g}, half the smallest t0_grid value")

    out = secs["output"]
    out_dir = out.string("dir", default="out")
    out.reject_unknown()

    return RunConfig(
        subcommand=sub, family=family, theta0=theta0, r0=r0, dphi=dphi, delta=delta,
        f_theta=f_theta, f_phi=f_phi, f_r=f_r,
        epsilon=epsilon, steps_per_unit_time=spu, frame=frame,
        sigma=sigma, tau=tau, pinning=pinning,
        n=n, mode=mode, p=p, q=q, tau0=tau0, sigma0=sigma0,
        epsilon_grid=tuple(eps_grid), delta_t=delta_t, t0_grid=tuple(t0_grid),
        tolerance=tolerance, seed=seed, out_dir=out_dir,
    )


def _triple(sec: _Section, key: str, default):
    values = sec.floats(key, default=default)
    if len(values) == 1:
        values = values * 3
    if len(values) != 3:
        sec._fail(key, "needs one value or three comma-separated values")
    return values


def build_path(config: RunConfig) -> paths.ControlPath:
    if config.family == "latitude":
        return paths.latitude_loop(config.theta0, config.r0)
    if config.family == "lune":
        return paths.lune_path(config.dphi, config.delta)
    try:
        return paths.fourier_path(config.f_theta, config.f_phi, config.f_r)
    except ValueError as exc:
        raise ConfigError(f"[path] invalid fourier profiles: {exc}") from exc


def _config_echo(config: RunConfig) -> dict:
    """Config fields relevant to the result (the output dir is environment,
    not experiment, and is excluded so reruns into fresh dirs stay identical)."""
    echo = asdict(config)
    del echo["out_dir"]
    return echo


def _write_json(path: Path, payload: dict) -> None:
    # numpy floats are floats to json; other numpy values go through tolist.
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda v: v.tolist())
    path.write_text(text + "\n", encoding="utf-8")


def _format_cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows, sep: str = ",") -> None:
    lines = [sep.join(header)]
    for row in rows:
        lines.append(sep.join(map(_format_cell, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _complex_matrix(m: np.ndarray) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def run(config: RunConfig) -> int:
    """Execute the configured experiment; returns the exit status.

    Writes the artifacts, then prints the headline lines of the report; the
    JSON stays the authoritative record. A config that needs more than
    propagator.MAX_STEPS steps in one propagation raises
    propagator.StepLimitError, which main reports as a config error.
    """
    try:
        # Parsed up front so that a bad value is a config error before any work.
        experiments.threads_from_env()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = build_path(config)
    sub = config.subcommand
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": sub,
        "config": _config_echo(config),
        "results": {},
    }
    results = summary["results"]
    checks: list[tuple[str, bool]] = []
    report = [f"subcommand: {sub}"]

    if sub in ("gate", "holonomy"):
        angle = holonomy.solid_angle(path)
        ideal = holonomy.ideal_gate(angle.omega_canonical)
        results["omega_cos"] = angle.omega_cos
        results["omega_area"] = angle.omega_area
        results["winding"] = angle.winding
        results["omega_canonical"] = angle.omega_canonical
        results["arc_length"] = angle.arc_length
        results["ideal_gate"] = [[float(v) for v in row] for row in ideal]
        report.append(f"omega_cos: {angle.omega_cos:.6g}   omega_area: "
                      f"{angle.omega_area:.6g}   winding: {angle.winding}   "
                      f"canonical: {angle.omega_canonical:.6g}")
        report.append(f"ideal gate: [[{ideal[0, 0]:.6g}, {ideal[0, 1]:.6g}], "
                      f"[{ideal[1, 0]:.6g}, {ideal[1, 1]:.6g}]]")
        if sub == "gate":
            # Looked up on the module at call time, so a wrapped propagator runs.
            evolve = (propagator.evolve_moving if config.frame == "moving"
                      else propagator.evolve_lab)
            u = evolve(path, config.epsilon, steps_per_unit_time=config.steps_per_unit_time)
            gate = propagator.extract_logical_gate(u, path)
            distance = float(np.linalg.norm(gate.block - ideal))
            results["extracted_block"] = _complex_matrix(gate.block)
            results["extracted_angle"] = gate.angle_estimate
            results["leakage"] = gate.leakage
            results["adiabaticity_lost"] = gate.adiabaticity_lost
            results["distance_to_ideal"] = distance
            report.append(f"extracted angle: {gate.angle_estimate:.6g}   leakage: "
                          f"{gate.leakage:.3g}   |gate - ideal|_F: {distance:.3g}")
            checks.append((f"leakage below {propagator.LEAKAGE_LIMIT}",
                           not gate.adiabaticity_lost))
            s = np.linspace(0.0, 1.0, 257)
            x = path.x(s)
            # Row by row, |x| = sqrt(x . x) bit for bit, as np.linalg.norm(row) is.
            r = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
            _write_csv(out / "path_samples.csv",
                       ["s", "x1", "x2", "x3", "theta", "phi", "r"],
                       np.column_stack([s, x, path.theta(s), path.phi(s), r]).tolist())
        else:
            s = np.linspace(0.0, 1.0, 513)
            costheta = np.cos(path.theta(s))
            phidot = path.phi.derivative(s)
            _write_csv(out / "integrand.csv",
                       ["s", "costheta", "phidot", "integrand_cos", "integrand_area"],
                       [(si, c, pd, c * pd, (1.0 - c) * pd)
                        for si, c, pd in zip(s, costheta, phidot)])

    elif sub == "noise-mc":
        spec = noise.NoiseSpec(sigma=config.sigma, tau=config.tau,
                               pinning=config.pinning, seed=config.seed)
        mc = experiments.mc_delta(path, spec, config.epsilon, config.n, config.mode)
        has_analytic = not np.isnan(mc.analytic_delta)
        results["delta_mean"] = mc.delta_mean
        results["delta_std"] = mc.delta_std
        results["std_error"] = mc.std_error
        results["analytic_delta"] = mc.analytic_delta if has_analytic else None
        results["n_excluded"] = mc.n_excluded
        line = f"delta_std: {mc.delta_std:.6g} +- {mc.std_error:.2g}"
        if has_analytic:
            line += f"   analytic: {mc.analytic_delta:.6g}"
            ok = abs(mc.delta_std - mc.analytic_delta) <= 3.0 * mc.std_error
            checks.append(("Monte Carlo Delta within 3 standard errors "
                           "of the analytic value", ok))
        report.append(line)
        _write_csv(out / "realizations.csv",
                   ["index", "delta_omega", "leakage", "included"],
                   [(i, d, l, l <= propagator.LEAKAGE_LIMIT)
                    for i, (d, l) in enumerate(zip(mc.deltas, mc.leakages))])

    else:
        # The fitted studies: a power law, its check, <sub>.csv and the
        # plot data <sub>_fit.dat of the CSV's first two columns.
        tol = config.tolerance if config.tolerance is not None else _DEFAULT_TOLERANCE[sub]
        target = None
        if sub == "scaling":
            study = experiments.scaling_study(
                path, config.p, config.q, config.tau0, config.sigma0,
                config.epsilon_grid, config.n, config.mode,
                pinning=config.pinning, base_seed=config.seed,
            )
            fit = study.fit
            target = results["predicted_exponent"] = noise.predicted_exponent(
                config.p, config.q)
            header = ["epsilon", "delta", "std_error", "analytic_delta"]
            rows = [(x, y, mc.std_error, mc.analytic_delta)
                    for x, y, mc in zip(fit.xs, fit.ys, study.results)]
            checks.append((f"fitted exponent within {tol} of predicted",
                           abs(fit.exponent - target) <= tol))
        elif sub == "timing":
            fit = experiments.timing_study(path, config.delta_t, config.t0_grid,
                                           steps_per_unit_time=config.steps_per_unit_time)
            target = -1.0
            results["delta_t"] = config.delta_t
            header = ["t0", "error"]
            rows = list(zip(fit.xs, fit.ys))
            checks.append((f"fitted slope within {tol} of -1",
                           abs(fit.exponent - target) <= tol))
        else:
            fit = experiments.convergence_study(
                path, config.epsilon_grid,
                steps_per_unit_time=config.steps_per_unit_time)
            header = ["epsilon", "distance"]
            rows = list(zip(fit.xs, fit.ys))
            checks.append((f"fitted slope at least {tol}", fit.exponent >= tol))
        results["fit"] = {
            "exponent": fit.exponent,
            "exponent_stderr": fit.exponent_stderr,
            "intercept": fit.intercept,
            "residual": fit.residual,
        }
        results["tolerance"] = tol
        line = f"exponent: {fit.exponent:.4g} +- {fit.exponent_stderr:.2g}"
        if target is not None:
            line += f" (predicted {target:.4g})"
        report.append(line)
        _write_csv(out / f"{sub}.csv", header, rows)
        _write_csv(out / f"{sub}_fit.dat", [f"# {header[0]}", header[1]],
                   [row[:2] for row in rows], sep=" ")

    results["checks"] = [{"name": name, "passed": bool(ok)} for name, ok in checks]
    _write_json(out / "summary.json", summary)
    _write_json(out / "run_meta.json", {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "numpy_version": np.__version__,
        "scipy_version": _scipy_version(),
    })
    report += [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    print("\n".join(report))
    return 0 if all(ok for _, ok in checks) else 3


@functools.cache
def _scipy_version() -> str:
    """The installed scipy's version, read from its package metadata so that
    a run which never needed scipy does not import it."""
    from importlib import metadata

    return metadata.version("scipy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tripodholo",
        description="Holonomic tripod-gate experiments: config in, CSV/JSON out.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    parser.add_argument("--out", default=None, help="override [output] dir")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        config = parse_config(text, args.subcommand)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        return run(config)
    except (ConfigError, propagator.StepLimitError) as exc:
        # A step count past MAX_STEPS comes from the config's epsilon or
        # grids, in whichever subcommand propagates.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except experiments.ExcludedRealizationsError as exc:
        # Too few realizations stayed in, mostly gates that lost
        # adiabaticity: a numerical-contract violation, not a config error.
        print(f"numerical-contract violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
