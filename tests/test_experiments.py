import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tripodholo import (
    NoiseSpec,
    convergence_study,
    delta_variance_analytic,
    fit_power_law,
    fourier_path,
    gate_distance,
    Harmonics,
    latitude_loop,
    mc_delta,
    scaling_study,
    timing_study,
)
from tripodholo.experiments import MC_MODES, _IntervalEngine, _mc_grid, _mc_intervals
from tripodholo import experiments, holonomy, noise as noise_mod, paths, propagator
from oracles import chain_delta, spherical_splines

EQUATOR = latitude_loop(np.pi / 2, 1.0)


def test_fit_power_law_exact_cases():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(xs, xs)
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.exponent_stderr == pytest.approx(0.0, abs=1e-12)
    fit = fit_power_law(xs, 3.0 * xs ** 2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_power_law_noisy_synthetic():
    rng = np.random.default_rng(123)
    xs = np.geomspace(0.01, 1.0, 12)
    ys = xs ** 1.25 * (1.0 + 0.05 * rng.standard_normal(xs.size))
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(1.25, abs=0.1)
    assert fit.exponent_stderr < 0.05


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_mc_zero_noise_gives_zero_delta():
    # epsilon small enough that the loop itself is adiabatic: at eps = 0.05
    # the equator's intrinsic leakage already exceeds the 10% exclusion flag.
    spec = NoiseSpec.uniform(0.0, 1.0, seed=1)
    for mode in ("first_order", "full_propagation"):
        res = mc_delta(EQUATOR, spec, 0.02, 8, mode)
        assert res.delta_std == pytest.approx(0.0, abs=1e-12)
        assert res.n_excluded == 0


def test_mc_first_order_matches_analytic():
    spec = NoiseSpec.uniform(0.05, 0.01, seed=123)
    res = mc_delta(EQUATOR, spec, 0.01, 2000, "first_order")
    assert res.analytic_delta == pytest.approx(
        np.sqrt(0.01 * 0.05 ** 2 * 4 * np.pi ** 2 / 100.0), rel=1e-8)
    assert abs(res.delta_std - res.analytic_delta) < 3.0 * res.std_error
    assert abs(res.delta_mean) < 3.0 * res.std_error


def test_mc_deterministic_across_reruns():
    spec = NoiseSpec.uniform(0.03, 0.2, seed=77)
    a = mc_delta(EQUATOR, spec, 0.05, 64, "first_order")
    b = mc_delta(EQUATOR, spec, 0.05, 64, "first_order")
    assert a.delta_std == b.delta_std
    assert a.delta_mean == b.delta_mean
    assert np.array_equal(a.deltas, b.deltas)


def test_interval_engine_matches_direct_distribution():
    # mc_delta samples every pinning with the interval engine; compare its
    # ensemble spread against the dense per-realization route, 2000 intervals
    # at tau 1 and, for the bridge, 20 000 at tau 0.01, within 3 combined
    # standard errors. Only z enters the equator's kernel.
    period = 20.0
    n = 2000
    for pinning, tau in (("none", 1.0), ("endpoint-ramp", 1.0), ("exact-bridge", 0.01)):
        spec = NoiseSpec(sigma=(0.0, 0.0, 0.01), tau=tau, pinning=pinning, seed=42)
        engine = _IntervalEngine(EQUATOR, spec, period)
        fast = np.array([engine(i) for i in range(n)])
        grid = _mc_grid(EQUATOR, spec, period)
        kern = holonomy.angle_response_kernel(EQUATOR, grid / period) / period
        dt = grid[1] - grid[0]
        w = np.full(grid.size, dt)
        w[0] = w[-1] = 0.5 * dt
        wk = kern * w[:, None]
        direct = np.array([
            float(np.einsum("ki,ki->", wk, noise_mod.sample_realization(spec, grid, i).dx))
            for i in range(n)])
        std_errors = [x.std(ddof=1) / np.sqrt(2.0 * n) for x in (fast, direct)]
        assert (abs(fast.std(ddof=1) - direct.std(ddof=1))
                <= 3.0 * np.hypot(*std_errors)), pinning
        assert abs(fast.mean()) < 4.0 * fast.std() / np.sqrt(n), pinning


@pytest.mark.parametrize("pinning", noise_mod.PINNING_MODES)
def test_interval_engine_delta_equals_the_forward_chain(pinning):
    # The engine runs the node chain backward once (its adjoint); the oracle
    # runs it forward on each realization's own draws. On this loop every
    # axis enters the kernel, and at tau 0.05 endpoint-ramp's nodes form
    # three blocks, the ramps' a apart from the interior's. Bound: 1e-15 of
    # the summed absolute terms, the scale of a dot product's rounding.
    loop = latitude_loop(np.pi / 3)
    spec = NoiseSpec(sigma=(0.01, 0.005, 0.02), tau=0.05, pinning=pinning, seed=8)
    period = 50.0
    engine = _IntervalEngine(loop, spec, period)
    chains = _IntervalEngine.chains(loop, spec, period)
    assert [c[0] for c in chains] == [0, 1, 2]
    for _, blocks, *_ in chains:
        if pinning == "endpoint-ramp":
            assert len(blocks) == 3 and blocks[0][1] != blocks[1][1]
        else:
            assert len(blocks) == 1
    for index in range(10):
        total = scale = 0.0
        for axis, blocks, innov, node_w, res_w in chains:
            rng = np.random.default_rng([spec.seed, index, axis])
            z = rng.standard_normal(innov.size)
            eta = rng.standard_normal(res_w.size)
            total += chain_delta(blocks, innov, node_w, res_w, z, eta)
            scale += chain_delta(blocks, np.abs(innov), np.abs(node_w), np.abs(res_w),
                                 np.abs(z), np.abs(eta))
        assert abs(engine(index) - total) <= 1e-15 * scale, (pinning, index)


def test_gap_frequency_perturbation_escapes_first_order_theory():
    # Deterministic demonstration of a response outside the first-order
    # theory: a z-perturbation of the constant-speed equator oscillating at
    # the gap frequency shifts the angle by 2.0e-4, orders of magnitude above
    # its geometric first-order response, while a slow perturbation is
    # captured to a few percent. The shift comes mainly from the drive
    # stopping at t = T while still moving: the same perturbation on the
    # equator traversed from rest to rest (phi = 2 pi s - sin 2 pi s) shifts
    # the angle by only 3.2e-6.
    eps = 0.02
    period = 1.0 / eps
    grid = np.linspace(0.0, period, 20001)
    s = grid / period
    amplitude = 1e-3

    class R:
        pass

    from tripodholo import (canonical_angle, delta_omega_first_order, evolve_lab,
                            extract_logical_gate, perturb)

    responses = {}
    for freq in (1.0, 0.05):
        dx = np.zeros((grid.size, 3))
        dx[:, 2] = amplitude * np.sin(freq * grid) * np.sin(np.pi * s) ** 2
        first = delta_omega_first_order(EQUATOR, dx, s)
        real = R()
        real.grid, real.dx = grid, dx
        gate = extract_logical_gate(
            evolve_lab(perturb(EQUATOR, real), eps, steps_per_unit_time=400), EQUATOR)
        responses[freq] = (first, canonical_angle(gate.angle_estimate))
    first_fast, full_fast = responses[1.0]
    first_slow, full_slow = responses[0.05]
    assert abs(full_fast - first_fast) > 100.0 * abs(first_fast)
    assert abs(full_slow - first_slow) < 0.05 * abs(first_slow)


def test_perturbed_realization_stays_on_the_spline_route():
    # One mc_full realization, propagated on paths.perturb's drive, which
    # takes the noise linearly between its knots, and on a path of three
    # scalar cubic splines through the same knots: the gates' angles differ
    # by 1.2e-7 rad, far below the realization's own 3.5e-4.
    from tripodholo import ControlPath, Profile, evolve_lab, extract_logical_gate, perturb

    eps = 0.02
    spec = NoiseSpec.uniform(0.01, 0.05, seed=1234)
    grid = _mc_grid(EQUATOR, spec, 1.0 / eps)
    real = noise_mod.sample_realization(spec, grid, 0)
    s = grid / grid[-1]
    theta, phi, radius = spherical_splines(EQUATOR.x(s) + real.dx, s)
    reference = ControlPath(
        theta=Profile(fn=theta, dfn=theta.derivative()),
        phi=Profile(fn=phi, dfn=phi.derivative()),
        radius=Profile(fn=radius, dfn=radius.derivative()),
    )
    gates = [extract_logical_gate(evolve_lab(p, eps, steps_per_unit_time=200), EQUATOR)
             for p in (perturb(EQUATOR, real), reference)]
    assert abs(gates[1].angle_estimate) > 1e-4
    assert abs(gates[0].angle_estimate - gates[1].angle_estimate) < 1e-6


def test_mode_agreement_in_validity_regime():
    # Noise slow on the microscopic scale (tau >> 1/gap): the first-order
    # geometric statistics reproduce full propagation within 10%.
    spec = NoiseSpec.uniform(0.01, 5.0, seed=99)
    full = mc_delta(EQUATOR, spec, 0.02, 300, "full_propagation")
    first = mc_delta(EQUATOR, spec, 0.02, 300, "first_order")
    assert full.n_excluded == 0
    assert abs(full.delta_std / first.delta_std - 1.0) < 0.10


def test_anisotropy_arbitration_on_equator():
    # Noise along axis 1 only: the component-faithful kernel predicts zero
    # first-order error, unlike the summed-velocity reading which gives
    # tau sigma^2 * 2 pi^2 / T. Monte Carlo sides with the kernel.
    spec = NoiseSpec(sigma=(0.05, 0.0, 0.0), tau=(0.2, 0.2, 0.2), seed=3)
    res = mc_delta(EQUATOR, spec, 0.05, 200, "first_order")
    wrong_reading = np.sqrt(0.2 * 0.05 ** 2 * 2 * np.pi ** 2 / 20.0)
    assert res.delta_std < 1e-12
    assert wrong_reading > 1e-3
    assert res.analytic_delta == pytest.approx(0.0, abs=1e-12)


def test_scaling_study_p1_q1():
    grid = np.geomspace(1e-2, 1e-1, 5)
    res = scaling_study(EQUATOR, 1.0, 1.0, 1.0, 1.0, grid, n=400,
                        mode="first_order", base_seed=2)
    assert noise_mod.predicted_exponent(1.0, 1.0) == pytest.approx(2.0)
    assert res.fit.exponent == pytest.approx(2.0, abs=0.2)


def test_scaling_study_validation():
    with pytest.raises(ValueError, match="decade"):
        scaling_study(EQUATOR, 0.5, 0.5, 1.0, 1.0, [0.02, 0.03, 0.04, 0.05],
                      n=10, mode="first_order")
    with pytest.raises(ValueError, match="4"):
        scaling_study(EQUATOR, 0.5, 0.5, 1.0, 1.0, [0.001, 0.1], n=10,
                      mode="first_order")


def test_convergence_study_latitude():
    path = latitude_loop(np.pi / 3, 1.0)
    fit = convergence_study(path, (0.2, 0.1, 0.05, 0.025, 0.0125))
    assert fit.exponent >= 0.8
    assert np.all(np.diff(fit.ys) > 0)  # error grows with epsilon


def test_convergence_constant_path_no_error():
    path = fourier_path(Harmonics(offset=1.0), Harmonics(offset=0.3),
                        Harmonics(offset=1.2))
    for eps in (0.1, 0.05):
        assert gate_distance(path, eps) < 1e-12


def test_convergence_r_profile_insensitive():
    varying = fourier_path(
        Harmonics(offset=1.2, sin=(0.25,), cos=(0.0, 0.1)),
        Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.2,)),
        Harmonics(offset=1.0, slope=0.5),
    )
    fit = convergence_study(varying, (0.1, 0.05, 0.025), steps_per_unit_time=40)
    assert fit.exponent >= 0.8


def test_timing_study_slope():
    path = latitude_loop(np.pi / 3, 1.0)
    fit = timing_study(path, 1.0, (100.0, 200.0, 400.0, 800.0))
    assert fit.exponent == pytest.approx(-1.0, abs=0.2)
    with pytest.raises(ValueError):
        timing_study(path, 1.0, (100.0, 200.0))


def test_mc_validation():
    spec = NoiseSpec.uniform(0.01, 0.1, seed=0)
    with pytest.raises(ValueError):
        mc_delta(EQUATOR, spec, 0.05, 10, "other_mode")
    with pytest.raises(ValueError):
        mc_delta(EQUATOR, spec, 0.05, 0, "first_order")


def test_fewer_than_two_realizations_are_rejected_by_name():
    # One realization has no spread; it used to pass the n >= 1 check and
    # then report "0 of 1 excluded", although nothing was excluded.
    spec = NoiseSpec.uniform(0.01, 0.1, seed=0)
    for n in (1, 0):
        for mode in experiments.MC_MODES:
            with pytest.raises(ValueError, match=rf"n must be at least 2 .*, got {n}$") as info:
                mc_delta(EQUATOR, spec, 0.05, n, mode)
            assert not isinstance(info.value, experiments.ExcludedRealizationsError)


def test_direct_sampler_grid_past_the_ceiling_is_rejected_before_allocation(monkeypatch):
    # Full propagation draws exact-bridge noise with the direct sampler on
    # the whole dense grid: tau = 1e-3 at epsilon 0.05 asks for 200 000
    # steps, here above a lowered ceiling.
    def nothing(*args, **kwargs):
        raise AssertionError("a noise grid was built or noise drawn on it")

    monkeypatch.setattr(propagator, "MAX_STEPS", 4096)
    monkeypatch.setattr(noise_mod, "sample_realization", nothing)
    monkeypatch.setattr(experiments, "_mc_grid", nothing)
    spec = NoiseSpec.uniform(0.01, 1e-3, pinning="exact-bridge", seed=0)
    with pytest.raises(propagator.StepLimitError,
                       match="200000 time steps exceed the limit of "
                             "MAX_STEPS = 4096"):
        mc_delta(EQUATOR, spec, 0.05, 4, "full_propagation")


@pytest.mark.parametrize("tau", [1.0, 1e-3])
@pytest.mark.parametrize("pinning", noise_mod.PINNING_MODES)
def test_first_order_builds_no_noise_grid_at_any_pinning(monkeypatch, pinning, tau):
    # First order has one sampler, the interval engine, which neither builds
    # the dense noise grid nor draws on it. At tau 1e-3 and epsilon 0.05 that
    # grid would hold 200 000 intervals, here above a lowered ceiling.
    def nothing(*args, **kwargs):
        raise AssertionError("a noise grid was built or noise drawn on it")

    monkeypatch.setattr(propagator, "MAX_STEPS", 4096)
    monkeypatch.setattr(noise_mod, "sample_realization", nothing)
    monkeypatch.setattr(experiments, "_mc_grid", nothing)
    spec = NoiseSpec.uniform(0.01, tau, pinning=pinning, seed=0)
    res = mc_delta(EQUATOR, spec, 0.05, 4, "first_order")
    assert np.all(np.isfinite(res.deltas))
    assert res.delta_std > 0.0


@pytest.mark.parametrize("epsilon", [0.0, -0.05, float("nan"), float("inf")])
@pytest.mark.parametrize("mode", experiments.MC_MODES)
def test_bad_epsilon_is_rejected_before_any_grid_or_draw(monkeypatch, epsilon, mode):
    def nothing(*args, **kwargs):
        raise AssertionError("a grid was built or noise drawn")

    monkeypatch.setattr(experiments, "_mc_intervals", nothing)
    monkeypatch.setattr(noise_mod, "sample_realization", nothing)
    spec = NoiseSpec.uniform(0.01, 0.5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            mc_delta(EQUATOR, spec, epsilon, 4, mode)


def test_scaling_grid_is_checked_before_the_first_ensemble(monkeypatch):
    # The grid runs in ascending order; 2.0 used to fail only after the
    # ensembles of the three smaller points had run.
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr(experiments, "mc_delta", no_ensemble)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        scaling_study(EQUATOR, 0.5, 0.5, 1.0, 1.0, [0.01, 0.1, 1.0, 2.0], n=10,
                      mode="first_order")


@pytest.mark.parametrize("pinning", ["none", "endpoint-ramp", "exact-bridge"])
def test_interval_engine_spread_scales_as_sqrt_tau_down_to_tiny_tau(pinning):
    # With tau far below the segment length the spread is sigma sqrt(tau)
    # times a constant; lam^2 = (2/tau)^2 used to overflow from tau ~ 1e-154.
    # The smallest normal float is the smallest tau a NoiseSpec accepts.
    taus = (1e-100, 1e-160, np.finfo(float).tiny)
    results = [mc_delta(EQUATOR, NoiseSpec.uniform(0.01, tau, pinning=pinning, seed=0),
                        0.05, 4, "first_order")
               for tau in taus]
    assert all(np.all(np.isfinite(res.deltas)) for res in results)
    ratios = [res.delta_std / np.sqrt(tau) for res, tau in zip(results, taus)]
    assert ratios[0] > 0.0
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)
    assert ratios[2] == pytest.approx(ratios[0], rel=1e-12)


def test_scaling_study_rejects_a_subnormal_tau_before_the_first_ensemble(monkeypatch):
    # tau = tau0 eps^p is 1e-320 at the smallest epsilon: below the smallest
    # normal float 2/tau is infinite and the interval engine's moments NaN.
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr(experiments, "mc_delta", no_ensemble)
    with pytest.raises(ValueError, match="tau components must be positive, and at "
                                         "least the smallest normal float"):
        scaling_study(EQUATOR, 2.0, 0.5, 1.0, 1.0, [1e-160, 1e-100, 1e-50, 1e-10],
                      n=10, mode="first_order")


def test_interval_engine_skips_an_undriven_axis():
    # Anisotropic noise with no noise on the y axis; on this latitude loop
    # every axis enters the kernel, so the skipped axis would show.
    loop = latitude_loop(np.pi / 3)
    spec = NoiseSpec(sigma=(0.01, 0.0, 0.02), tau=0.05, seed=11)
    runs = [mc_delta(loop, spec, 0.02, 2000, "first_order") for _ in range(2)]
    res = runs[0]
    assert abs(res.delta_std - res.analytic_delta) < 3.0 * res.std_error
    assert runs[1].deltas.tobytes() == res.deltas.tobytes()
    assert runs[1].delta_std == res.delta_std


@pytest.mark.parametrize("tau", [1e-160, 1e-300, 1e-307])
@pytest.mark.parametrize("pinning", noise_mod.PINNING_MODES)
def test_tiny_tau_runs_or_names_the_grid_size(pinning, tau):
    spec = NoiseSpec.uniform(0.01, tau, pinning=pinning, seed=0)
    res = mc_delta(EQUATOR, spec, 0.05, 4, "first_order")
    assert np.all(np.isfinite(res.deltas))
    assert res.delta_std > 0.0
    if pinning != "none":
        with pytest.raises(propagator.StepLimitError, match="time steps exceed"):
            mc_delta(EQUATOR, spec, 0.05, 4, "full_propagation")


def test_mc_full_mode_reports_leakage_fields():
    spec = NoiseSpec.uniform(0.01, 0.5, seed=31)
    res = mc_delta(EQUATOR, spec, 0.02, 16, "full_propagation")
    assert res.leakages.shape == (16,)
    assert np.all(res.leakages >= 0.0)
    assert np.all(res.leakages > 0.0)
    assert res.n_excluded == 0


def test_exact_bridge_weight_is_computed_once_per_axis_setting(monkeypatch):
    # The bridge weight depends only on the grid and tau: a full-propagation
    # ensemble computes it once per distinct tau, not per realization and
    # axis, and the deltas equal those drawn with the uncached weight.
    spec = NoiseSpec(sigma=(0.01, 0.01, 0.01), tau=(0.5, 0.5, 0.25),
                     pinning="exact-bridge", seed=13)
    n = 6
    noise_mod.bridge_weight.cache_clear()
    cached = mc_delta(EQUATOR, spec, 0.02, n, "full_propagation")
    info = noise_mod.bridge_weight.cache_info()
    assert (info.misses, info.hits) == (2, 3 * n - 2)
    monkeypatch.setattr(noise_mod, "bridge_weight", noise_mod.bridge_weight.__wrapped__)
    direct = mc_delta(EQUATOR, spec, 0.02, n, "full_propagation")
    assert cached.n_excluded == direct.n_excluded == 0
    assert cached.deltas.tobytes() == direct.deltas.tobytes()


def test_mc_excludes_non_adiabatic_realizations():
    # At eps = 0.05 the equator loop leaks above the flag threshold, so the
    # whole ensemble is excluded and statistics are refused.
    spec = NoiseSpec.uniform(0.001, 0.5, seed=31)
    with pytest.raises(ValueError, match="excluded"):
        mc_delta(EQUATOR, spec, 0.05, 4, "full_propagation")


def test_too_few_realizations_left_is_a_named_error():
    # The noiseless latitude loop at theta0 = 1, eps = 0.1 already leaks 0.34,
    # so every realization is excluded.
    spec = NoiseSpec.uniform(0.01, 0.5, seed=0)
    with pytest.raises(experiments.ExcludedRealizationsError, match="5 of 5 excluded"):
        mc_delta(latitude_loop(1.0), spec, 0.1, 5, "full_propagation")
    assert issubclass(experiments.ExcludedRealizationsError, ValueError)


def test_analytic_delta_nan_for_varying_radius():
    varying = fourier_path(
        Harmonics(offset=1.2),
        Harmonics(offset=0.0, slope=2 * np.pi),
        Harmonics(offset=1.0, slope=0.3),
    )
    spec = NoiseSpec.uniform(0.01, 0.5, seed=8)
    res = mc_delta(varying, spec, 0.05, 32, "first_order")
    assert np.isnan(res.analytic_delta)
    assert res.delta_std > 0.0


def test_ensembles_start_no_thread(monkeypatch):
    # Both Monte Carlo modes run their realizations in one loop on the
    # calling thread.
    def no_thread(self):
        raise AssertionError("an ensemble started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    spec = NoiseSpec.uniform(0.01, 0.5, seed=31)
    for mode in MC_MODES:
        res = mc_delta(EQUATOR, spec, 0.02, 4, mode)
        assert res.n_excluded == 0 and res.delta_std > 0.0


def _rest_to_rest_equator():
    """Criterion 09's loop: the equator, traversed from rest to rest."""
    return fourier_path(Harmonics(np.pi / 2), Harmonics(0.0, slope=2 * np.pi, sin=(-1.0,)),
                        Harmonics(1.0))


def test_full_propagation_equals_the_public_route_per_index():
    # Each full-propagation delta and leakage is, to the bit, what the public
    # route gives realization by realization: sample_realization, perturb on
    # the path, evolve_lab at the ensemble's density, extract_logical_gate,
    # minus the geometric angle. At r0 = 30 every realization takes more
    # steps than the nominal loop would.
    sixty = latitude_loop(np.pi / 3)
    cases = [
        (_rest_to_rest_equator(), NoiseSpec.uniform(0.01, 0.05, seed=99), 0.02),
        (sixty, NoiseSpec.uniform(0.01, 0.5, pinning="exact-bridge", seed=9), 0.05),
        (fourier_path(Harmonics(1.2, sin=(0.25,)), Harmonics(0.0, slope=2 * np.pi, sin=(0.2,)),
                      Harmonics(1.0, slope=0.5)),
         NoiseSpec.uniform(0.01, 0.5, pinning="exact-bridge", seed=12), 0.02),
        (latitude_loop(np.pi / 3, r0=30.0), NoiseSpec.uniform(0.01, 0.1, seed=13), 0.05),
    ]
    n = 4
    for path, spec, eps in cases:
        res = mc_delta(path, spec, eps, n, "full_propagation")
        period = 1.0 / eps
        grid = _mc_grid(path, spec, period)
        spu = int(np.ceil(_mc_intervals(path, spec, period) / period))
        omega_ref = holonomy.solid_angle(path).omega_canonical
        deltas, leakages, counts = np.empty(n), np.empty(n), set()
        for idx in range(n):
            drive = paths.perturb(path, noise_mod.sample_realization(spec, grid, idx))
            counts.add(propagator._effective_steps(drive, eps, spu))
            u = propagator.evolve_lab(drive, eps, steps_per_unit_time=spu)
            gate = propagator.extract_logical_gate(u, path)
            deltas[idx] = holonomy.canonical_angle(gate.angle_estimate - omega_ref)
            leakages[idx] = gate.leakage
        assert np.array_equal(res.deltas, deltas)
        assert np.array_equal(res.leakages, leakages)
        nominal = propagator._effective_steps(path, eps, spu)
        assert (nominal not in counts) == (path.radius(0.0) == 30.0)


def test_full_propagation_evaluates_the_nominal_path_once_per_ensemble():
    # The nominal loop's profiles are evaluated as often for 8 realizations
    # as for 4: every realization reads its knot, step-count and midpoint
    # values from the ensemble.
    calls = [0]

    def counted(fn):
        def wrapped(s):
            calls[0] += 1
            return fn(s)
        return wrapped

    base = _rest_to_rest_equator()
    path = paths.ControlPath(*(
        paths.Profile(fn=counted(p), dfn=counted(p.derivative))
        for p in (base.theta, base.phi, base.radius)))
    spec = NoiseSpec.uniform(0.01, 0.05, seed=7)
    made = []
    for n in (4, 8):
        calls[0] = 0
        res = mc_delta(path, spec, 0.02, n, "full_propagation")
        assert res.n_excluded == 0
        made.append(calls[0])
    assert made[0] == made[1]


def test_full_propagation_step_ceiling_trips_before_any_noise(monkeypatch):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(noise_mod, "sample_realization", no_noise)
    spec = NoiseSpec.uniform(0.01, 0.1, seed=0)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        mc_delta(EQUATOR, spec, 1e-9, 4, "full_propagation")


def test_full_propagation_rejects_unpinned_noise_before_any_grid(monkeypatch):
    def nothing(*args, **kwargs):
        raise AssertionError("a grid was built or noise was drawn")

    monkeypatch.setattr(experiments, "_mc_grid", nothing)
    monkeypatch.setattr(noise_mod, "sample_realization", nothing)
    spec = NoiseSpec.uniform(0.01, 0.5, pinning="none", seed=0)
    with pytest.raises(ValueError, match="pinned noise"):
        mc_delta(EQUATOR, spec, 0.02, 4, "full_propagation")


def test_full_propagation_excludes_realizations_near_the_origin():
    # At sigma 0.6 some realizations drive the curve within 0.1 min r of the
    # origin, where perturb rejects them: they are excluded and counted,
    # with NaN delta and leakage, and the others are propagated. Most of
    # those leak past the limit too; 2 of these 100 stay in.
    loop = latitude_loop(1.0)
    spec = NoiseSpec.uniform(0.6, 0.5, seed=0)
    eps, n = 0.1, 100
    grid = _mc_grid(loop, spec, 1.0 / eps)
    near_origin = []
    for idx in range(n):
        try:
            paths.perturb(loop, noise_mod.sample_realization(spec, grid, idx))
            near_origin.append(False)
        except ValueError as exc:
            assert "origin" in str(exc)
            near_origin.append(True)
    assert 0 < sum(near_origin) < n
    res = mc_delta(loop, spec, eps, n, "full_propagation")
    assert np.array_equal(np.isnan(res.deltas), near_origin)
    assert np.array_equal(np.isnan(res.leakages), near_origin)
    assert res.n_excluded >= sum(near_origin)


def test_first_order_interval_engine_builds_no_dense_grid():
    # At epsilon 1e-4 and tau 0.1 the dense grid would hold 1e6 intervals
    # (16 MB with s = grid / period); the interval engine reads neither, with
    # the exact bridge too.
    for pinning in ("endpoint-ramp", "exact-bridge"):
        spec = NoiseSpec.uniform(0.01, 0.1, pinning=pinning, seed=3)
        tracemalloc.start()
        try:
            mc_delta(EQUATOR, spec, 1e-4, 4, "first_order")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6, pinning
