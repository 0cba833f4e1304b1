"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its headline numbers and runtime."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

import tripodholo as th
from tripodholo import cli
from tripodholo.propagator import dark_basis_matrix


def _report(capsys, num: int, ok: bool, elapsed: float, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
              f"({elapsed:5.1f}s) {detail}")


def _fourier_pair():
    angles = dict(
        theta_coeffs=th.Harmonics(offset=1.2, sin=(0.25,), cos=(0.0, 0.1)),
        phi_coeffs=th.Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.2,)),
    )
    flat = th.fourier_path(r_coeffs=th.Harmonics(offset=1.0), **angles)
    varying = th.fourier_path(r_coeffs=th.Harmonics(offset=1.0, slope=0.5), **angles)
    return flat, varying


def test_criterion_01_analytic_gate_vs_dynamics(capsys):
    start = time.time()
    path = th.latitude_loop(np.pi / 3, 1.0)
    report = th.solid_angle(path)
    assert report.omega_cos == pytest.approx(np.pi, abs=1e-8)
    ideal = th.gate_from_connection(path)
    assert np.allclose(ideal.matrix, -np.eye(2), atol=1e-10)
    gate = th.extract_logical_gate(
        th.evolve_lab(path, th.PropagationSettings(epsilon=0.0125)), path)
    distance = float(np.linalg.norm(gate.block - (-np.eye(2))))
    elapsed = time.time() - start
    ok = distance < 0.05 and gate.leakage < 0.01 and elapsed < 10.0
    _report(capsys, 1, ok, elapsed,
            f"|gate - (-1)|_F = {distance:.4f} (< 0.05), "
            f"leakage = {gate.leakage:.4f} (< 0.01)")
    assert distance < 0.05
    assert gate.leakage < 0.01
    assert elapsed < 10.0


def test_criterion_02_adiabatic_rate(capsys):
    start = time.time()
    path = th.latitude_loop(np.pi / 3, 1.0)
    fit = th.convergence_study(path, (0.2, 0.1, 0.05, 0.025, 0.0125))
    elapsed = time.time() - start
    ok = fit.exponent >= 0.8 and elapsed < 60.0
    _report(capsys, 2, ok, elapsed,
            f"log-log slope = {fit.exponent:.3f} (>= 0.8)")
    assert fit.exponent >= 0.8
    assert elapsed < 60.0


def test_criterion_03_frame_duality(capsys):
    start = time.time()
    flat, _ = _fourier_pair()
    families = [th.latitude_loop(np.pi / 3, 1.0), th.lune_path(np.pi / 2, 1e-3), flat]
    worst = 0.0
    settings = th.PropagationSettings(epsilon=0.05, steps_per_unit_time=2500)
    for path in families:
        u = th.evolve_lab(path, settings)
        v = th.evolve_moving(path, settings)
        r1 = th.r_rotation(path, 1.0).astype(complex)
        worst = max(worst, float(np.linalg.norm(v - r1 @ u)))
    elapsed = time.time() - start
    ok = worst < 1e-6
    _report(capsys, 3, ok, elapsed,
            f"max ||V - R U||_F over 3 families = {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


def test_criterion_04_connection_equivalence(capsys):
    start = time.time()
    _, path = _fourier_pair()
    p0 = th.spectral(path.x(0.0)).p_zero.astype(complex)

    def fd_form(s, h):
        rp = th.r_rotation(path, s + h).astype(complex)
        rm = th.r_rotation(path, s - h).astype(complex)
        rinv = th.r_rotation(path, s).T.astype(complex)
        return 1j * p0 @ ((rp - rm) / (2.0 * h)) @ rinv @ p0

    rng = np.random.default_rng(7)
    ratios, worst = [], 0.0
    for s in rng.uniform(0.05, 0.95, 10):
        closed = th.connection(path, s)
        d1 = float(np.linalg.norm(fd_form(s, 1e-3) - closed))
        d2 = float(np.linalg.norm(fd_form(s, 5e-4) - closed))
        worst = max(worst, d1)
        ratios.append(d1 / d2)
    elapsed = time.time() - start
    ok = worst < 1e-3 and all(3.0 < r < 5.0 for r in ratios)
    _report(capsys, 4, ok, elapsed,
            f"max defect(h=1e-3) = {worst:.2e}, halving ratios in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}] (~4)")
    assert worst < 1e-3
    assert all(3.0 < r < 5.0 for r in ratios)


def test_criterion_05_winding_identity(capsys):
    start = time.time()
    flat, varying = _fourier_pair()
    multi = th.fourier_path(
        th.Harmonics(offset=1.3, sin=(0.2,)),
        th.Harmonics(offset=0.5, slope=4 * np.pi, sin=(0.3,)),
        th.Harmonics(offset=1.0, slope=0.2),
    )
    worst = 0.0
    for path in (th.latitude_loop(np.pi / 3), th.latitude_loop(2.0),
                 th.lune_path(np.pi / 2, 1e-3), flat, varying, multi):
        rep = th.solid_angle(path)
        worst = max(worst, abs(rep.omega_cos + rep.omega_area
                               - 2 * np.pi * rep.winding))
    elapsed = time.time() - start
    ok = worst < 1e-8
    _report(capsys, 5, ok, elapsed,
            f"max |omega_cos + omega_area - 2 pi w| = {worst:.2e} (< 1e-8)")
    assert worst < 1e-8


def test_criterion_06_first_order_noise_response(capsys):
    start = time.time()
    theta0, c = np.pi / 3, 1e-3
    path = th.latitude_loop(theta0, 1.0)
    s = np.linspace(0.0, 1.0, 4001)
    radial = (0.7 + np.sin(2 * np.pi * s))[:, None] * path.xhat(s)
    radial_response = th.delta_omega_first_order(path, radial, s)
    etheta = np.stack([np.cos(theta0) * np.cos(2 * np.pi * s),
                       np.cos(theta0) * np.sin(2 * np.pi * s),
                       -np.sin(theta0) * np.ones_like(s)], axis=1)
    shift = th.delta_omega_first_order(path, c * etheta, s)
    oracle = (th.solid_angle(th.latitude_loop(theta0 + c)).omega_cos
              - th.solid_angle(path).omega_cos)
    rel = abs(shift - oracle) / abs(oracle)
    elapsed = time.time() - start
    ok = abs(radial_response) < 1e-14 and rel < 0.01
    _report(capsys, 6, ok, elapsed,
            f"radial response = {radial_response:.1e} (exact 0), latitude shift "
            f"within {100 * rel:.3f}% of finite-difference oracle (< 1%)")
    assert abs(radial_response) < 1e-14
    assert shift == pytest.approx(-2 * np.pi * c * np.sin(theta0), rel=1e-4)
    assert rel < 0.01


def test_criterion_07_variance_law(capsys):
    start = time.time()
    path = th.latitude_loop(np.pi / 2, 1.0)
    spec = th.NoiseSpec.uniform(0.05, 0.01, seed=123)
    res = th.mc_delta(path, spec, epsilon=0.01, n=10000, mode="first_order")
    predicted = np.sqrt(0.01 * 0.05 ** 2 * 4 * np.pi ** 2 / 100.0)
    deviation = abs(res.delta_std - predicted)
    elapsed = time.time() - start
    ok = (deviation <= 3.0 * res.std_error and res.n_excluded == 0
          and elapsed < 60.0)
    _report(capsys, 7, ok, elapsed,
            f"Delta = {res.delta_std:.5e} vs sqrt(tau sig^2 4pi^2/T) = "
            f"{predicted:.5e}, |dev| = {deviation / res.std_error:.2f} "
            f"std errors (<= 3)")
    assert res.analytic_delta == pytest.approx(predicted, rel=1e-8)
    assert deviation <= 3.0 * res.std_error
    assert res.n_excluded == 0
    assert elapsed < 60.0


def test_criterion_08_exponent_law(capsys):
    start = time.time()
    path = th.latitude_loop(np.pi / 2, 1.0)
    grid = np.geomspace(1e-3, 1e-1, 11)  # 5 points per decade
    res = th.scaling_study(path, 0.5, 0.5, 1.0, 1.0, grid, n=2000,
                           mode="first_order", base_seed=11)
    extrapolated = float(np.exp(res.fit.intercept) * 1e-4 ** res.fit.exponent)
    elapsed = time.time() - start
    ok = (abs(res.fit.exponent - 1.25) <= 0.15 and extrapolated < 1e-4
          and elapsed < 300.0)
    _report(capsys, 8, ok, elapsed,
            f"fitted exponent = {res.fit.exponent:.3f} +- "
            f"{res.fit.exponent_stderr:.3f} (1.25 +- 0.15); extrapolated "
            f"Delta(eps=1e-4) = {extrapolated:.2e} (< 1e-4 adiabatic bound)")
    assert res.predicted_exponent == pytest.approx(1.25)
    assert abs(res.fit.exponent - 1.25) <= 0.15
    assert extrapolated < 1e-4
    assert all(r.n_excluded == 0 for r in res.results)
    assert elapsed < 300.0


def test_criterion_09_first_order_vs_full_propagation(capsys):
    # The equator traversed from rest to rest, phi(s) = 2 pi s - sin 2 pi s:
    # the same shadow and solid angle as the constant-speed equator, so the
    # same geometric gate. A drive that stops at t = T while still moving at
    # 2 pi / T lets noise near the gap frequency (r = 1) leave an O(sigma)
    # bright-state amplitude, which the dark-plane projection of
    # extract_logical_gate turns into a sigma-linear angle shift outside the
    # geometric theory (Delta_full/Delta_first = 1.24 on that loop at these
    # parameters, falling towards 1 as tau grows). Starting and stopping at
    # rest keeps the evolution adiabatic at the ends, as the paper's
    # stability result assumes, while the noise (1/tau = 20) stays flat
    # across the gap.
    start = time.time()
    path = th.fourier_path(th.Harmonics(offset=np.pi / 2),
                           th.Harmonics(0.0, slope=2 * np.pi, sin=(-1.0,)),
                           th.Harmonics(offset=1.0))
    equator = th.latitude_loop(np.pi / 2, 1.0)
    assert th.solid_angle(path).omega_cos == pytest.approx(
        th.solid_angle(equator).omega_cos, abs=1e-8)
    assert np.max(np.abs(path.xhat_dot(np.array([0.0, 1.0])))) < 1e-12
    spec = th.NoiseSpec.uniform(0.01, 0.05, seed=99)
    full = th.mc_delta(path, spec, epsilon=0.02, n=500, mode="full_propagation")
    first = th.mc_delta(path, spec, epsilon=0.02, n=500, mode="first_order")
    ratio = full.delta_std / first.delta_std
    elapsed = time.time() - start
    ok = abs(ratio - 1.0) <= 0.10 and elapsed < 600.0
    _report(capsys, 9, ok, elapsed,
            f"Delta_full/Delta_first = {ratio:.3f} (required within 1 +- 0.10; "
            f"equator from rest to rest, tau = 0.05)")
    assert full.n_excluded == 0
    assert elapsed < 600.0
    assert abs(ratio - 1.0) <= 0.10, (
        f"Delta_full/Delta_first = {ratio:.3f} on the rest-to-rest equator: "
        "with no endpoint velocity, full propagation should match the "
        "first-order geometric statistics within Monte Carlo error (about "
        "4.5% for two independent ensembles of 500)."
    )


def test_criterion_10_timing_law(capsys):
    start = time.time()
    path = th.latitude_loop(np.pi / 3, 1.0)
    fit = th.timing_study(path, 1.0, (100.0, 200.0, 400.0, 800.0))
    elapsed = time.time() - start
    ok = abs(fit.exponent - (-1.0)) <= 0.2 and elapsed < 120.0
    _report(capsys, 10, ok, elapsed,
            f"fitted slope = {fit.exponent:.3f} (-1 +- 0.2)")
    assert abs(fit.exponent - (-1.0)) <= 0.2
    assert elapsed < 120.0


def test_criterion_11_r_profile_independence(capsys):
    start = time.time()
    flat, varying = _fourier_pair()
    assert float(varying.radius(1.0)) == pytest.approx(1.5 * float(varying.radius(0.0)))
    settings = th.PropagationSettings(epsilon=0.025, steps_per_unit_time=40)
    ideal = th.gate_from_connection(flat)
    gate_flat = th.extract_logical_gate(th.evolve_lab(flat, settings), flat)
    gate_var = th.extract_logical_gate(th.evolve_lab(varying, settings), varying)
    d_eps = float(np.linalg.norm(gate_flat.block - ideal.matrix))
    d_pair = float(np.linalg.norm(gate_flat.block - gate_var.block))
    elapsed = time.time() - start
    ok = d_pair <= 2.0 * d_eps
    _report(capsys, 11, ok, elapsed,
            f"|gate(r varying) - gate(r=1)|_F = {d_pair:.4f} "
            f"<= 2 d(eps) = {2 * d_eps:.4f}")
    assert th.solid_angle(flat).omega_cos == pytest.approx(
        th.solid_angle(varying).omega_cos, abs=1e-8)
    assert d_pair <= 2.0 * d_eps


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    start = time.time()
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
    scaling_text = """\
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
    all_equal = True
    for name, cfg_text, files in [
        ("mc", text, ("summary.json", "realizations.csv")),
        ("scaling", scaling_text, ("summary.json", "scaling.csv", "scaling_fit.dat")),
    ]:
        payloads = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("THREADS", workers)
            out = tmp_path / f"{name}_{workers}"
            config = replace(cli.parse_config(cfg_text), out_dir=str(out))
            assert cli.run(config) == 0
            payloads.append(tuple((out / f).read_bytes() for f in files))
        all_equal = all_equal and payloads[0] == payloads[1] == payloads[2]
    elapsed = time.time() - start
    _report(capsys, 12, all_equal, elapsed,
            "noise-mc and scaling artifacts byte-identical under "
            "THREADS = 1, 2, 8")
    assert all_equal
