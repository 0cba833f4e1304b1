import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tripodholo import cli, holonomy, noise, paths, propagator, quadrature, tripod
from tripodholo.propagator import evolve_lab, evolve_moving, extract_logical_gate

MINIMAL_GATE = """\
[path]
family = latitude
theta0 = 1.0471975511965976

[propagation]
epsilon = 0.05

[experiment]
subcommand = gate
"""


def test_parse_minimal_with_defaults():
    config = cli.parse_config(MINIMAL_GATE)
    assert config.subcommand == "gate"
    assert config.family == "latitude"
    assert config.theta0 == pytest.approx(np.pi / 3)
    assert config.r0 == 1.0
    assert config.epsilon == 0.05
    assert config.steps_per_unit_time == 20
    assert config.frame == "lab"
    assert config.pinning == "endpoint-ramp"
    assert config.seed == 0


def test_parse_rejects_out_of_range_theta0():
    bad = MINIMAL_GATE.replace("1.0471975511965976", "4.0")
    with pytest.raises(cli.ConfigError, match="theta0"):
        cli.parse_config(bad)


def test_parse_rejects_zero_epsilon():
    bad = MINIMAL_GATE.replace("epsilon = 0.05", "epsilon = 0")
    with pytest.raises(cli.ConfigError, match="epsilon"):
        cli.parse_config(bad)


def test_parse_rejects_unknown_key_with_line():
    bad = MINIMAL_GATE + "mystery = 1\n"
    with pytest.raises(cli.ConfigError, match="unknown key 'mystery'"):
        cli.parse_config(bad)
    try:
        cli.parse_config(bad)
    except cli.ConfigError as exc:
        assert "line" in str(exc)


def test_parse_rejects_unknown_section_and_duplicates():
    with pytest.raises(cli.ConfigError, match=r"unknown section"):
        cli.parse_config(MINIMAL_GATE + "[plotting]\nstyle = fancy\n")
    dup = MINIMAL_GATE + "n = 200\nn = 300\n"
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(dup)


def test_parse_subcommand_mismatch():
    with pytest.raises(cli.ConfigError, match="mismatch"):
        cli.parse_config(MINIMAL_GATE, "scaling")
    config = cli.parse_config(MINIMAL_GATE, "gate")
    assert config.subcommand == "gate"
    # main always passes the command line's subcommand; a library call need not.
    with pytest.raises(cli.ConfigError, match="no subcommand given"):
        cli.parse_config(MINIMAL_GATE.replace("subcommand = gate\n", ""))


def test_parse_grid_conflicts():
    text = MINIMAL_GATE.replace("subcommand = gate", "subcommand = scaling")
    both = text + "epsilon_grid = 0.01, 0.1\nepsilon_min = 0.01\nepsilon_max = 0.1\n"
    with pytest.raises(cli.ConfigError, match="not both"):
        cli.parse_config(both)
    half = text + "epsilon_min = 0.01\n"
    with pytest.raises(cli.ConfigError, match="go together"):
        cli.parse_config(half)


def test_parse_all_families():
    config = cli.parse_config(MINIMAL_GATE)
    assert (config.family, config.theta0, config.r0) == ("latitude", 1.0471975511965976, 1.0)
    config = cli.parse_config("""\
[path]
family = lune
dphi = 1.2
delta = 0.01

[experiment]
subcommand = holonomy
""")
    assert (config.subcommand, config.family) == ("holonomy", "lune")
    assert (config.dphi, config.delta) == (1.2, 0.01)
    config = cli.parse_config("""\
[path]
family = fourier
theta_offset = 1.2
theta_sin = 0.25
phi_winding = 1
phi_sin = 0.2
r_offset = 1.0
r_slope = 0.5

[noise]
sigma = 0.01, 0.02, 0.0
tau = 0.3

[experiment]
subcommand = noise-mc
n = 150
mode = first_order
seed = 9
""")
    assert config.family == "fourier"
    assert config.f_theta == paths.Harmonics(offset=1.2, sin=(0.25,))
    assert config.f_phi == paths.Harmonics(offset=0.0, slope=2.0 * np.pi, sin=(0.2,))
    assert config.f_r == paths.Harmonics(offset=1.0, slope=0.5)
    assert config.sigma == (0.01, 0.02, 0.0)
    assert config.tau == (0.3, 0.3, 0.3)
    assert (config.subcommand, config.n, config.mode, config.seed) == (
        "noise-mc", 150, "first_order", 9)


def test_readme_example_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        cli.parse_config(block)


def test_readme_quick_start_runs(capsys):
    # Guards the public names the quick start calls.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_gate_run_artifacts(tmp_path, monkeypatch):
    # One cubature call gives both solid-angle forms and the arc length.
    integrals = []
    integrate_path = quadrature.integrate_path

    def counted(f):
        integrals.append(f)
        return integrate_path(f)

    for module in (quadrature, holonomy):
        monkeypatch.setattr(module, "integrate_path", counted)
    config = cli.parse_config(MINIMAL_GATE.replace("0.05", "0.0125"))
    config = replace(config, out_dir=str(tmp_path / "gate"))
    assert cli.run(config) == 0
    assert len(integrals) == 1
    summary = json.loads((tmp_path / "gate" / "summary.json").read_text())
    res = summary["results"]
    assert summary["schema_version"] == 1
    assert res["omega_cos"] == pytest.approx(np.pi, abs=1e-8)
    assert res["arc_length"] == pytest.approx(np.pi * np.sqrt(3.0), rel=1e-12)
    assert abs(abs(res["omega_canonical"]) - np.pi) < 1e-8
    assert res["leakage"] < 0.01
    assert res["distance_to_ideal"] < 0.05
    lines = (tmp_path / "gate" / "path_samples.csv").read_text().splitlines()
    assert lines[0] == "s,x1,x2,x3,theta,phi,r"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (257, 7)
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 257))
    assert np.allclose(rows[:, 6], config.r0, rtol=0.0, atol=1e-15)
    meta = json.loads((tmp_path / "gate" / "run_meta.json").read_text())
    assert "timestamp_utc" in meta
    assert isinstance(meta["numpy_version"], str) and meta["numpy_version"]
    assert "timestamp_utc" not in json.dumps(summary)


def test_gate_leakage_exit_code(tmp_path):
    text = MINIMAL_GATE.replace("theta0 = 1.0471975511965976",
                                "theta0 = 1.5707963267948966")
    config = cli.parse_config(text)  # equator at eps = 0.05 leaks > 0.1
    config = replace(config, out_dir=str(tmp_path / "leaky"))
    assert cli.run(config) == 3
    summary = json.loads((tmp_path / "leaky" / "summary.json").read_text())
    assert summary["results"]["adiabaticity_lost"] is True


def test_holonomy_run(tmp_path):
    text = """\
[path]
family = lune
dphi = 1.5707963267948966
delta = 0.0001

[experiment]
subcommand = holonomy
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "hol"))
    assert cli.run(config) == 0
    res = json.loads((tmp_path / "hol" / "summary.json").read_text())["results"]
    assert res["omega_cos"] == pytest.approx(-np.pi / 2, abs=1e-6)
    assert res["winding"] == 0
    assert (tmp_path / "hol" / "integrand.csv").exists()


def test_noise_mc_run_and_rerun_determinism(tmp_path):
    text = """\
[path]
family = latitude
theta0 = 1.5707963267948966

[propagation]
epsilon = 0.05

[noise]
sigma = 0.02
tau = 0.1

[experiment]
subcommand = noise-mc
n = 150
mode = first_order
seed = 12
"""
    payloads = []
    for rerun in range(3):
        out = tmp_path / f"mc{rerun}"
        config = replace(cli.parse_config(text), out_dir=str(out))
        assert cli.run(config) == 0
        payloads.append((
            (out / "summary.json").read_bytes(),
            (out / "realizations.csv").read_bytes(),
        ))
    assert payloads[0] == payloads[1] == payloads[2]


def test_rerun_byte_identical(tmp_path):
    config = cli.parse_config(MINIMAL_GATE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.run(replace(config, out_dir=str(out_a))) == 0
    assert cli.run(replace(config, out_dir=str(out_b))) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "path_samples.csv").read_bytes() == (out_b / "path_samples.csv").read_bytes()


def test_timing_run(tmp_path):
    text = """\
[path]
family = latitude
theta0 = 1.0471975511965976

[experiment]
subcommand = timing
delta_t = 1.0
t0_grid = 100, 200, 400

[output]
dir = unused
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "tim"))
    assert cli.run(config) == 0
    res = json.loads((tmp_path / "tim" / "summary.json").read_text())["results"]
    assert res["fit"]["exponent"] == pytest.approx(-1.0, abs=0.2)
    dat = (tmp_path / "tim" / "timing_fit.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 4


def test_convergence_run(tmp_path):
    text = """\
[path]
family = latitude
theta0 = 1.0471975511965976

[experiment]
subcommand = convergence
epsilon_grid = 0.2, 0.1, 0.05
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "conv"))
    assert cli.run(config) == 0
    res = json.loads((tmp_path / "conv" / "summary.json").read_text())["results"]
    assert res["fit"]["exponent"] >= 0.8
    assert res["checks"][0]["passed"] is True


def test_scaling_run_small(tmp_path):
    text = """\
[path]
family = latitude
theta0 = 1.5707963267948966

[experiment]
subcommand = scaling
n = 200
epsilon_min = 0.005
epsilon_max = 0.1
points_per_decade = 3
seed = 4
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "sc"))
    assert cli.run(config) == 0
    res = json.loads((tmp_path / "sc" / "summary.json").read_text())["results"]
    assert res["predicted_exponent"] == pytest.approx(1.25)
    assert abs(res["fit"]["exponent"] - 1.25) <= res["tolerance"]
    rows = (tmp_path / "sc" / "scaling.csv").read_text().splitlines()
    assert rows[0] == "epsilon,delta,std_error,analytic_delta"
    assert len(rows) == 6  # header + 5 grid points


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL_GATE.replace("0.05", "0.02"), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["gate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["gate", "--config", str(tmp_path / "missing.ini")]) == 4
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL_GATE + "junk = 1\n", encoding="utf-8")
    assert cli.main(["gate", "--config", str(bad)]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir", encoding="utf-8")
    assert cli.main(["gate", "--config", str(cfg), "--out",
                     str(blocker / "nested")]) == 4


def test_main_seed_override(tmp_path):
    text = """\
[path]
family = latitude
theta0 = 1.5707963267948966

[propagation]
epsilon = 0.05

[noise]
sigma = 0.02
tau = 0.1

[experiment]
subcommand = noise-mc
n = 120
seed = 12
"""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text, encoding="utf-8")
    out1, out2, out3 = (tmp_path / d for d in ("s12", "s13", "s12b"))
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["noise-mc", "--config", str(cfg), "--seed", "13",
                     "--out", str(out2)]) == 0
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(out3)]) == 0
    r1 = (out1 / "realizations.csv").read_bytes()
    r2 = (out2 / "realizations.csv").read_bytes()
    r3 = (out3 / "realizations.csv").read_bytes()
    assert r1 != r2
    assert r1 == r3


def test_report_format_and_tolerance_failure(tmp_path, capsys):
    text = """\
[path]
family = latitude
theta0 = 1.0471975511965976

[experiment]
subcommand = timing
delta_t = 1.0
t0_grid = 100, 200, 400
tolerance = 0.0001
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "t"))
    status = cli.run(config)
    out = capsys.readouterr().out
    assert status == 3
    assert "exponent:" in out
    assert "(predicted -1)" in out
    assert "FAIL" in out
    # artifacts are still written before the failing status is returned
    assert (tmp_path / "t" / "summary.json").exists()


def test_report_scaling_pass_line(tmp_path, capsys):
    text = """\
[path]
family = latitude
theta0 = 1.5707963267948966

[experiment]
subcommand = scaling
n = 150
epsilon_min = 0.005
epsilon_max = 0.1
points_per_decade = 3
seed = 4
"""
    config = replace(cli.parse_config(text), out_dir=str(tmp_path / "s"))
    assert cli.run(config) == 0
    out = capsys.readouterr().out
    assert "(predicted 1.25)" in out
    assert "PASS" in out


_SIXTY = "theta0 = 1.0471975511965976"
_REPORTS = {
    "gate": (MINIMAL_GATE.replace(_SIXTY, "theta0 = 1.0"), [
        "subcommand: gate",
        "omega_cos: 3.39482   omega_area: 2.88837   winding: 1   canonical: -2.88837",
        "ideal gate: [[-0.968109, -0.250529], [0.250529, -0.968109]]",
        "extracted angle: -3.01653   leakage: 0.0524   |gate - ideal|_F: 0.186",
        "leakage below 0.1: PASS",
    ]),
    "holonomy": ("[path]\nfamily = lune\ndphi = 1.2\ndelta = 0.01\n", [
        "subcommand: holonomy",
        "omega_cos: -1.19994   omega_area: 1.19994   winding: 0   canonical: -1.19994",
        "ideal gate: [[0.362414, -0.932017], [0.932017, 0.362414]]",
    ]),
    "noise-mc": (MINIMAL_GATE.replace("[experiment]", "[noise]\nsigma = 0.02\n"
                                      "tau = 0.1\n\n[experiment]") + "n = 150\nseed = 12\n", [
        "subcommand: noise-mc",
        "delta_std: 0.00701466 +- 0.0004   analytic: 0.0076953",
        "Monte Carlo Delta within 3 standard errors of the analytic value: PASS",
    ]),
    "scaling": (MINIMAL_GATE.replace(_SIXTY, "theta0 = 1.5707963267948966")
                + "n = 150\nepsilon_min = 0.005\nepsilon_max = 0.1\n"
                  "points_per_decade = 3\nseed = 4\n", [
        "subcommand: scaling",
        "exponent: 1.203 +- 0.031 (predicted 1.25)",
        "fitted exponent within 0.15 of predicted: PASS",
    ]),
    "timing": (MINIMAL_GATE + "delta_t = 1.0\nt0_grid = 100, 200, 400\n", [
        "subcommand: timing",
        "exponent: -0.9926 +- 0.00044 (predicted -1)",
        "fitted slope within 0.2 of -1: PASS",
    ]),
    "convergence": (MINIMAL_GATE + "epsilon_grid = 0.2, 0.1, 0.05\n", [
        "subcommand: convergence",
        "exponent: 1.562 +- 0.11",
        "fitted slope at least 0.8: PASS",
    ]),
}


@pytest.mark.parametrize("subcommand", list(_REPORTS))
def test_report_lines(tmp_path, capsys, subcommand):
    text, expected = _REPORTS[subcommand]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text.replace("subcommand = gate\n", ""), encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_gate_step_count_past_the_ceiling_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL_GATE.replace("epsilon = 0.05", "epsilon = 1e-9"),
                   encoding="utf-8")
    assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "MAX_STEPS" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, experiment", [
    ("timing", "t0_grid = 1e9, 2e9, 4e9"),
    ("convergence", "epsilon_grid = 1e-9, 0.01, 0.1"),
    ("scaling", "epsilon_grid = 1e-9, 1e-8, 1e-7, 1e-6\nmode = full_propagation\nn = 100"),
], ids=["timing", "convergence", "scaling"])
def test_every_subcommand_maps_the_step_ceiling_to_a_config_error(
        tmp_path, capsys, monkeypatch, subcommand, experiment):
    def no_steps(*args, **kwargs):
        raise AssertionError("steps were built")

    monkeypatch.setattr(tripod, "step_unitaries", no_steps)
    monkeypatch.setattr(noise, "sample_realization", no_steps)
    cfg = tmp_path / "cfg.ini"
    text = MINIMAL_GATE.replace("subcommand = gate", f"subcommand = {subcommand}")
    cfg.write_text(text + experiment + "\n", encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "MAX_STEPS" in capsys.readouterr().err


def test_full_propagation_noise_mc_step_ceiling_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(noise, "sample_realization", no_noise)
    cfg = tmp_path / "cfg.ini"
    text = (MINIMAL_GATE.replace("epsilon = 0.05", "epsilon = 1e-9")
            .replace("subcommand = gate", "subcommand = noise-mc"))
    cfg.write_text(text + "mode = full_propagation\nn = 100\n\n[noise]\nsigma = 0.01\n",
                   encoding="utf-8")
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "MAX_STEPS" in capsys.readouterr().err


def test_exact_bridge_noise_grid_past_the_ceiling_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # Full propagation builds the whole exact-bridge noise grid: 200 000
    # intervals at tau = 1e-3 and epsilon 0.05, here above a lowered ceiling.
    def no_noise(*args, **kwargs):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(propagator, "MAX_STEPS", 4096)
    monkeypatch.setattr(noise, "sample_realization", no_noise)
    cfg = tmp_path / "cfg.ini"
    text = MINIMAL_GATE.replace("subcommand = gate", "subcommand = noise-mc")
    cfg.write_text(text + "mode = full_propagation\nn = 100\n\n[noise]\nsigma = 0.01\n"
                   "tau = 0.001\npinning = exact-bridge\n", encoding="utf-8")
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "200000 time steps exceed" in capsys.readouterr().err


def test_noise_mc_with_a_tiny_tau_runs(tmp_path):
    # First order samples every pinning with the interval engine, which
    # needs no grid of 200/tau intervals.
    text = MINIMAL_GATE.replace("subcommand = gate", "subcommand = noise-mc")
    for pinning in noise.PINNING_MODES:
        cfg = tmp_path / f"{pinning}.ini"
        cfg.write_text(text + "n = 100\n\n[noise]\nsigma = 0.01\ntau = 1e-160\n"
                       f"pinning = {pinning}\n", encoding="utf-8")
        out = tmp_path / pinning
        assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(out)]) == 0, pinning


def test_exact_bridge_with_a_tiny_tau_names_the_interval_count(tmp_path, capsys):
    # First order runs at this tau (above); full propagation would need a
    # grid of 200/tau intervals and names their count.
    cfg = tmp_path / "cfg.ini"
    text = MINIMAL_GATE.replace("subcommand = gate", "subcommand = noise-mc")
    cfg.write_text(text + "mode = full_propagation\nn = 100\n\n[noise]\nsigma = 0.01\n"
                   "tau = 1e-160\npinning = exact-bridge\n", encoding="utf-8")
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "2e+162 time steps exceed" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, old, new, key", [
    ("gate", "epsilon = 0.05", "epsilon = inf", "epsilon"),
    ("gate", "epsilon = 0.05", "epsilon = nan", "epsilon"),
    ("noise-mc", "[experiment]", "[noise]\nsigma = nan\n\n[experiment]", "sigma"),
    ("noise-mc", "[experiment]", "[noise]\nsigma = 0.01\ntau = inf\n\n[experiment]", "tau"),
    ("timing", "[experiment]", "[experiment]\ndelta_t = nan", "delta_t"),
    ("gate", "theta0 = 1.0471975511965976", "theta0 = nan", "theta0"),
], ids=["epsilon-inf", "epsilon-nan", "sigma-nan", "tau-inf", "delta_t-nan", "theta0-nan"])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, subcommand,
                                                    old, new, key):
    cfg = tmp_path / "cfg.ini"
    text = MINIMAL_GATE.replace("subcommand = gate", f"subcommand = {subcommand}")
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "finite" in err


@pytest.mark.parametrize("subcommand, experiment, key", [
    ("scaling", "epsilon_grid = 0.01, 0.02, 0.03, 0.04", "epsilon_grid"),
    ("scaling", "epsilon_grid = 0.1, 0.5, 1.0, 2.0", "epsilon_grid"),
    ("scaling", "epsilon_min = 0.1\nepsilon_max = 2.0", "epsilon_max"),
    ("scaling", "n = 100\np = 1\nq = 1\nsigma0 = 0\n"
                "epsilon_grid = 0.02, 0.04, 0.08, 0.2", "sigma0"),
    ("timing", "delta_t = 60", "delta_t"),
], ids=["scaling-span", "scaling-epsilon-above-1", "scaling-resolved-grid",
        "scaling-sigma0-zero", "timing-delta_t"])
def test_study_preconditions_are_config_errors(tmp_path, capsys, subcommand,
                                               experiment, key):
    cfg = tmp_path / "cfg.ini"
    text = (MINIMAL_GATE.replace("theta0 = 1.0471975511965976", "theta0 = 1.0")
            .replace("subcommand = gate", f"subcommand = {subcommand}"))
    cfg.write_text(text + experiment + "\n", encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"[experiment] {key}:" in err
    assert re.search(r"line \d+:", err)


@pytest.mark.parametrize("subcommand", ["noise-mc", "scaling"])
def test_full_propagation_with_unpinned_noise_is_a_config_error(tmp_path, capsys,
                                                                subcommand):
    cfg = tmp_path / "cfg.ini"
    text = (MINIMAL_GATE.replace("theta0 = 1.0471975511965976", "theta0 = 1.0")
            .replace("epsilon = 0.05", "epsilon = 0.1")
            .replace("subcommand = gate", f"subcommand = {subcommand}"))
    cfg.write_text(text + "mode = full_propagation\nn = 100\n\n"
                   "[noise]\nsigma = 0.01\ntau = 0.5\npinning = none\n", encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[noise] pinning:" in err
    assert re.search(r"line \d+:", err)


def test_full_propagation_counts_realizations_near_the_origin(tmp_path):
    # 38 of these 100 realizations drive the curve within 0.1 min r of the
    # origin; the run excludes and counts them instead of failing.
    cfg = tmp_path / "cfg.ini"
    text = (MINIMAL_GATE.replace("theta0 = 1.0471975511965976", "theta0 = 1.0")
            .replace("epsilon = 0.05", "epsilon = 0.1")
            .replace("subcommand = gate", "subcommand = noise-mc"))
    cfg.write_text(text + "mode = full_propagation\nn = 100\nseed = 0\n\n"
                   "[noise]\nsigma = 0.6\ntau = 0.5\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["noise-mc", "--config", str(cfg), "--out", str(out)]) in (0, 3)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["results"]["n_excluded"] >= 38
    rows = (out / "realizations.csv").read_text(encoding="utf-8").splitlines()[1:]
    near_origin = [r for r in rows if r.split(",")[1:] == ["nan", "nan", "false"]]
    assert len(near_origin) >= 38


@pytest.mark.parametrize("subcommand, experiment", [
    ("noise-mc", "n = 100"),
    ("scaling", "n = 100\nepsilon_grid = 0.1, 0.2, 0.5, 1.0\nsigma0 = 0.03"),
])
def test_too_few_realizations_left_exits_3_without_a_traceback(tmp_path, capsys,
                                                                subcommand, experiment):
    # The noiseless loop already leaks 0.34 at eps = 0.1, above the leakage
    # limit, so every realization of the (first) ensemble is excluded.
    cfg = tmp_path / "cfg.ini"
    text = (MINIMAL_GATE.replace("theta0 = 1.0471975511965976", "theta0 = 1.0")
            .replace("epsilon = 0.05", "epsilon = 0.1")
            .replace("subcommand = gate", f"subcommand = {subcommand}"))
    cfg.write_text(text + f"mode = full_propagation\n{experiment}\n\n"
                   "[noise]\nsigma = 0.01\ntau = 0.5\n", encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "100 of 100 excluded" in err
    assert "Traceback" not in err


def test_evolve_dispatches_on_frame(tmp_path, capsys):
    path = cli.build_path(cli.parse_config(MINIMAL_GATE))
    for frame, route in (("lab", evolve_lab), ("moving", evolve_moving)):
        cfg = tmp_path / f"{frame}.ini"
        cfg.write_text(MINIMAL_GATE.replace("epsilon = 0.05",
                                            f"epsilon = 0.05\nframe = {frame}"),
                       encoding="utf-8")
        out = tmp_path / frame
        assert cli.main(["gate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        block = extract_logical_gate(route(path, 0.05), path).block
        assert summary["results"]["extracted_block"] == cli._complex_matrix(block)
    cfg = tmp_path / "rotating.ini"
    cfg.write_text(MINIMAL_GATE.replace("epsilon = 0.05", "epsilon = 0.05\nframe = rotating"),
                   encoding="utf-8")
    assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "[propagation] frame:" in err
    assert re.search(r"line \d+:", err)


def test_json_encodes_numpy_values_as_python_values(tmp_path):
    payload = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
               "a": np.arange(3), "m": np.eye(2), "l": [np.float32(0.5), None]}
    expected = {"f": 0.1, "i": 3, "b": True, "a": [0, 1, 2],
                "m": [[1.0, 0.0], [0.0, 1.0]], "l": [0.5, None]}
    cli._write_json(tmp_path / "x.json", payload)
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == (
        json.dumps(expected, sort_keys=True, indent=2) + "\n")


def _case(subcommand, tail="", old=None, new=None, extra=(), message=""):
    """One config-error case: MINIMAL_GATE for `subcommand` (None leaves it
    off the command line), with `old` replaced by `new` and `tail` appended,
    run with the extra arguments; stderr must match `message`."""
    text = MINIMAL_GATE.replace("subcommand = gate", f"subcommand = {subcommand or 'gate'}")
    if old is not None:
        text = text.replace(old, new)
    return pytest.param(subcommand, text + tail, list(extra), message)


# MINIMAL_GATE has 9 lines, so a tail starts at line 10.
_CONFIG_ERRORS = {
    "no-equals": _case("gate", "n 200\n",
                       message=r"line 10: expected 'key = value', got 'n 200'"),
    "key-outside-section": _case("gate", old="[path]", new="seed = 1\n[path]",
                                 message=r"line 1: key outside any \[section\]"),
    "not-a-number": _case("gate", old="epsilon = 0.05", new="epsilon = fast",
                          message=r"line 6: \[propagation\] epsilon: not a number: 'fast'"),
    "not-an-integer": _case("noise-mc", "n = 2.5\n",
                            message=r"line 10: \[experiment\] n: not an integer: '2.5'"),
    "not-a-number-list": _case(
        "convergence", "epsilon_grid = 0.1, fast, 0.05\n",
        message=r"line 10: \[experiment\] epsilon_grid: not a comma-separated number list"),
    "integer-below-minimum": _case("noise-mc", "n = 99\n",
                                   message=r"line 10: \[experiment\] n: must be >= 100"),
    "no-subcommand": _case(None, message="the following arguments are required: subcommand"),
    "family-missing": _case("gate", old="family = latitude\n", new="",
                            message=r"\[path\] family is required"),
    "theta0-missing": _case("gate", old="theta0 = 1.0471975511965976\n", new="",
                            message=r"\[path\] theta0 is required for the latitude family"),
    "dphi-missing": _case("holonomy", old="family = latitude\ntheta0 = 1.0471975511965976",
                          new="family = lune",
                          message=r"\[path\] dphi is required for the lune family"),
    "theta_offset-missing": _case(
        "holonomy", old="family = latitude\ntheta0 = 1.0471975511965976",
        new="family = fourier",
        message=r"\[path\] theta_offset is required for the fourier family"),
    "sigma-negative": _case(
        "noise-mc", "\n[noise]\nsigma = -0.01\n",
        message=r"line 12: \[noise\] sigma: components must be nonnegative"),
    "tau-zero": _case("noise-mc", "\n[noise]\nsigma = 0.01\ntau = 0\n",
                      message=r"line 13: \[noise\] tau: components must be positive"),
    "epsilon-range-reversed": _case(
        "scaling", "epsilon_min = 0.1\nepsilon_max = 0.01\n",
        message=r"\[experiment\] epsilon_max must exceed epsilon_min"),
    "epsilon-grid-non-positive": _case(
        "convergence", "epsilon_grid = 0.1, 0, 0.05\n",
        message=r"\[experiment\] epsilon_grid values must be positive"),
    "t0-grid-non-positive": _case(
        "timing", "t0_grid = 100, -200, 400\n",
        message=r"\[experiment\] t0_grid values must be positive"),
    "timing-delta_t-zero": _case(
        "timing", "delta_t = 0\n",
        message=r"\[experiment\] delta_t must be nonzero for the timing study"),
    "scaling-too-few-epsilons": _case(
        "scaling", "epsilon_grid = 0.001, 0.01, 0.1\n",
        message=r"\[experiment\] the scaling study needs >= 4 epsilon points"),
    "convergence-too-few-epsilons": _case(
        "convergence", "epsilon_grid = 0.1, 0.05\n",
        message=r"\[experiment\] epsilon_grid needs >= 3 points"),
    "timing-too-few-t0": _case("timing", "t0_grid = 100, 200\n",
                               message=r"\[experiment\] t0_grid needs >= 3 points"),
    "sigma-two-values": _case(
        "noise-mc", "\n[noise]\nsigma = 0.01, 0.02\n",
        message=r"line 12: \[noise\] sigma: needs one value or three comma-separated values"),
    "fourier-invalid": _case(
        "holonomy", old="family = latitude\ntheta0 = 1.0471975511965976",
        new="family = fourier\ntheta_offset = 0.1\ntheta_sin = 0.5",
        message=r"\[path\] invalid fourier profiles: theta profile leaves the open interval"),
    "bad-argv": _case("gate", extra=["--bogus"], message="unrecognized arguments: --bogus"),
    "negative-seed": _case("gate", extra=["--seed", "-1"],
                           message=r"config error: --seed must be nonnegative"),
}


@pytest.mark.parametrize("subcommand, text, extra, message",
                         list(_CONFIG_ERRORS.values()), ids=list(_CONFIG_ERRORS))
def test_every_config_error_exits_2_with_its_message(tmp_path, capsys, subcommand, text,
                                                     extra, message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text, encoding="utf-8")
    argv = ([subcommand] if subcommand else []) + ["--config", str(cfg),
                                                   "--out", str(tmp_path / "o")]
    assert cli.main(argv + extra) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand, text, key", [
    ("noise-mc", "n = 100\nseed = 5\n\n[noise]\nsigma = 0.01\ntau = 1e-310\n",
     r"line 15: \[noise\] tau: components must be positive, and at least the "
     r"smallest normal float"),
    ("scaling", "tau0 = 1e-310\nepsilon_grid = 0.005, 0.01, 0.02, 0.05\n",
     r"line 10: \[experiment\] tau0: tau = tau0 \* min\(epsilon\)\^p = 7.07107e-312 "
     r"is below the smallest normal float"),
], ids=["noise-mc", "scaling"])
def test_a_subnormal_tau_is_a_config_error(tmp_path, capsys, subcommand, text, key):
    # Below the smallest normal float 2/tau is infinite, and the interval
    # engine used to write NaN deltas and exit 3 through a failed check.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL_GATE.replace("theta0 = 1.0471975511965976",
                                        "theta0 = 1.5707963267948966")
                   .replace("subcommand = gate", f"subcommand = {subcommand}") + text,
                   encoding="utf-8")
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.search(key, capsys.readouterr().err)
