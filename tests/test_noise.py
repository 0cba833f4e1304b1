import numpy as np
import pytest
from scipy import signal

from tripodholo import (
    NoiseSpec,
    predicted_exponent,
    sample_realization,
    scaling_params,
)
from tripodholo import noise
from tripodholo.noise import RAMP_WIDTH_TAUS

from oracles import ar1_recursion

SIGMA, TAU = 0.05, 0.5


def stationary_slice(spec: NoiseSpec, grid) -> slice:
    """Index range of the grid that excludes the pinning ramps."""
    t = np.asarray(grid, dtype=float)
    if spec.pinning != "endpoint-ramp":
        return slice(0, t.size)
    width = RAMP_WIDTH_TAUS * max(spec.tau)
    dt = t[1] - t[0]
    k = int(np.ceil(width / dt)) + 1
    if 2 * k >= t.size:
        raise ValueError("grid too short to contain a stationary region")
    return slice(k, t.size - k)


def empirical_autocovariance(realizations, spec, axis: int, lags):
    """Ensemble lag-covariance estimates, with standard errors, of
    realizations drawn from spec.

    axis is 1-based (matching the drive components). Each realization
    contributes an unbiased zero-mean estimate over its stationary interior;
    the returned standard errors are across the ensemble.
    """
    col = axis - 1
    first = realizations[0]
    t = first.grid
    dt = t[1] - t[0]
    interior = stationary_slice(spec, t)
    lag_steps = [int(round(float(lag) / dt)) for lag in np.atleast_1d(lags)]
    assert max(lag_steps) < interior.stop - interior.start
    per_real = np.empty((len(realizations), len(lag_steps)))
    for j, real in enumerate(realizations):
        x = real.dx[interior, col]
        for q, k in enumerate(lag_steps):
            if k == 0:
                per_real[j, q] = np.mean(x * x)
            else:
                per_real[j, q] = np.mean(x[:-k] * x[k:])
    estimates = per_real.mean(axis=0)
    stderr = per_real.std(axis=0, ddof=1) / np.sqrt(len(realizations))
    return estimates, stderr


@pytest.fixture(scope="module")
def ensemble():
    """200 pinned realizations, T = 1000 tau, reused by the statistics tests."""
    spec = NoiseSpec.uniform(SIGMA, TAU, seed=314)
    grid = np.linspace(0.0, 1000.0 * TAU, 10001)
    reals = [sample_realization(spec, grid, i) for i in range(200)]
    return spec, grid, reals


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=(-0.1, 0, 0), tau=(1, 1, 1))
    with pytest.raises(ValueError):
        NoiseSpec(sigma=(0.1, 0.1, 0.1), tau=(0.0, 1, 1))
    with pytest.raises(ValueError):
        NoiseSpec(sigma=0.1, tau=1.0, pinning="clamp")
    for sigma, tau in (((np.nan, 0.1, 0.1), 1.0), (np.inf, 1.0),
                       (0.1, (1.0, np.inf, 1.0)), (0.1, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(sigma=sigma, tau=tau)
    spec = NoiseSpec(sigma=0.1, tau=2.0)
    assert spec.sigma == (0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match="expected a scalar or a 3-vector"):
        NoiseSpec(sigma=(0.1, 0.2), tau=1.0)


def test_spec_rejects_a_subnormal_tau():
    # Below the smallest normal float 2/tau is infinite.
    tiny = float(np.finfo(float).tiny)
    with pytest.raises(ValueError, match=rf"tau components must be positive, and at "
                                         rf"least the smallest normal float {tiny!r}"):
        NoiseSpec.uniform(0.01, 1e-310)
    assert NoiseSpec.uniform(0.01, tiny).tau == (tiny,) * 3


def test_zero_sigma_gives_zero_noise():
    spec = NoiseSpec.uniform(0.0, 1.0)
    grid = np.linspace(0.0, 10.0, 101)
    real = sample_realization(spec, grid, 0)
    assert np.array_equal(real.dx, np.zeros((101, 3)))


def test_determinism_and_stream_independence():
    spec = NoiseSpec.uniform(SIGMA, TAU, seed=7)
    grid = np.linspace(0.0, 50.0, 1001)
    a = sample_realization(spec, grid, 3)
    b = sample_realization(spec, grid, 3)
    assert np.array_equal(a.dx, b.dx)
    c = sample_realization(spec, grid, 4)
    assert not np.array_equal(a.dx, c.dx)
    other_seed = sample_realization(NoiseSpec.uniform(SIGMA, TAU, seed=8), grid, 3)
    assert not np.array_equal(a.dx, other_seed.dx)


def test_grid_too_coarse_rejected():
    spec = NoiseSpec.uniform(0.1, 0.05)
    grid = np.linspace(0.0, 10.0, 101)  # dt = 0.1 > tau/10
    with pytest.raises(ValueError, match="coarse"):
        sample_realization(spec, grid, 0)


def test_grid_shape_rejected():
    spec = NoiseSpec.uniform(0.1, 1.0)
    for grid in ([0.0], np.zeros((3, 2))):
        with pytest.raises(ValueError, match="1-d array with at least two points"):
            sample_realization(spec, grid, 0)


def test_nonuniform_grid_rejected():
    spec = NoiseSpec.uniform(0.1, 1.0)
    grid = np.concatenate([np.linspace(0, 5, 60), np.linspace(5.2, 10, 40)])
    with pytest.raises(ValueError, match="uniform"):
        sample_realization(spec, grid, 0)


def test_long_run_variance(ensemble):
    spec, grid, reals = ensemble
    interior = slice(300, -300)
    var = np.mean([np.var(r.dx[interior, 0]) for r in reals[:50]])
    assert var == pytest.approx(SIGMA ** 2, rel=0.05)


def test_pinned_ends_exact(ensemble):
    _, _, reals = ensemble
    for real in reals[:10]:
        assert np.array_equal(real.dx[0], np.zeros(3))
        assert np.array_equal(real.dx[-1], np.zeros(3))


def test_autocovariance_decay(ensemble):
    spec, _, reals = ensemble
    lags = [0.0, TAU / 2, TAU, 2 * TAU]
    est, se = empirical_autocovariance(reals, spec, 1, lags)
    expected = SIGMA ** 2 * np.exp(-2.0 * np.asarray(lags) / TAU)
    for e, s, x in zip(est, se, expected):
        assert abs(e - x) < 3.0 * s
    assert est[0] == pytest.approx(SIGMA ** 2, rel=0.05)
    # C(tau/2)/C(0) tracks exp(-1)
    assert est[1] / est[0] == pytest.approx(np.exp(-1.0), rel=0.1)


def test_autocovariance_far_lag_negligible(ensemble):
    spec, _, reals = ensemble
    est, se = empirical_autocovariance(reals, spec, 1, [5.0 * TAU])
    assert abs(est[0]) < 4.0 * se[0]
    assert abs(est[0]) < 0.01 * SIGMA ** 2


def test_integrated_covariance_matches_white_intensity(ensemble):
    spec, grid, reals = ensemble
    dt = grid[1] - grid[0]
    lags = np.arange(0, int(4 * TAU / dt)) * dt
    est, _ = empirical_autocovariance(reals, spec, 1, lags)
    integral = (est[0] + 2.0 * np.sum(est[1:])) * dt
    assert integral == pytest.approx(TAU * SIGMA ** 2, rel=0.10)


def test_cross_axis_independence(ensemble):
    _, _, reals = ensemble
    x = np.concatenate([r.dx[300:-300, 0] for r in reals[:40]])
    y = np.concatenate([r.dx[300:-300, 1] for r in reals[:40]])
    n_eff = x.size * 0.1  # ~tau/dt correlated samples
    assert abs(np.corrcoef(x, y)[0, 1]) < 3.0 / np.sqrt(n_eff)


def test_pinning_interior_bias_small():
    # pinned vs unpinned interior variance differ below 1% at T = 1000 tau
    grid = np.linspace(0.0, 1000.0 * TAU, 10001)
    interior = slice(300, -300)
    seeds = range(60)
    var_pinned = np.mean([
        np.var(sample_realization(
            NoiseSpec(sigma=(SIGMA, 0, 0), tau=(TAU,) * 3, seed=1), grid, i).dx[interior, 0])
        for i in seeds])
    var_free = np.mean([
        np.var(sample_realization(
            NoiseSpec(sigma=(SIGMA, 0, 0), tau=(TAU,) * 3, pinning="none", seed=1),
            grid, i).dx[interior, 0])
        for i in seeds])
    assert abs(var_pinned - var_free) / var_free < 0.01


def test_exact_bridge_pins_and_keeps_variance():
    spec = NoiseSpec.uniform(SIGMA, TAU, pinning="exact-bridge", seed=5)
    grid = np.linspace(0.0, 1000.0 * TAU, 10001)
    reals = [sample_realization(spec, grid, i) for i in range(30)]
    for r in reals[:5]:
        assert np.array_equal(r.dx[0], np.zeros(3))
        assert np.allclose(r.dx[-1], np.zeros(3), atol=1e-12)
    interior = slice(300, -300)
    var = np.mean([np.var(r.dx[interior, 0]) for r in reals])
    assert var == pytest.approx(SIGMA ** 2, rel=0.07)


def test_scaling_params():
    tau, sigma = scaling_params(1e-4, 0.5, 0.5, 1.0, 1.0)
    assert tau == pytest.approx(1e-2)
    assert sigma == pytest.approx(1e-2)
    assert scaling_params(1.0, 0.7, 0.9, 2.0, 3.0) == (2.0, 3.0)
    assert predicted_exponent(0.5, 0.5) == pytest.approx(1.25)
    assert predicted_exponent(1.0, 1.0) == pytest.approx(2.0)
    # vanishing scaling of both noise parameters leaves the bare 1/2
    assert predicted_exponent(1e-12, 1e-12) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        scaling_params(0.0, 0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        scaling_params(0.5, -0.1, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        scaling_params(0.5, 0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="sigma0 must be nonnegative"):
        scaling_params(0.5, 0.5, 0.5, 1.0, -0.1)


@pytest.mark.parametrize("pinning", ["none", "endpoint-ramp", "exact-bridge"])
def test_each_driven_axis_filters_through_the_module_lfilter(monkeypatch, pinning):
    # Layer tracing wraps noise.lfilter; a draw that bypassed it would make
    # that span read 0.
    original = noise.lfilter
    calls = []

    def counting(b, a, x):
        out = original(b, a, x)
        calls.append((b, a, x.copy(), out))
        return out

    monkeypatch.setattr(noise, "lfilter", counting)
    spec = NoiseSpec(sigma=(SIGMA, 0.0, 2 * SIGMA), tau=TAU, pinning=pinning, seed=5)
    real = sample_realization(spec, np.linspace(0.0, 10.0, 401), 3)
    assert len(calls) == 2
    for b, a, x, out in calls:
        ref = ar1_recursion(-a[1], x)
        # The oracle is scipy's recursion to the bit; the blocked filter
        # rounds differently.
        assert np.array_equal(ref, signal.lfilter(b, a, x))
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.sqrt(np.mean(ref ** 2))
    assert not real.dx[:, 1].any()
    if pinning == "none":
        assert np.array_equal(real.dx[:, 0], calls[0][3])
        assert np.array_equal(real.dx[:, 2], calls[1][3])


@pytest.mark.parametrize("b, a", [([1.0, 0.5], [1.0, -0.9]), ([2.0], [1.0, -0.9]),
                                  ([1.0], [2.0, -0.9]), ([1.0], [1.0, -0.9, 0.1]),
                                  ([1.0], [1.0])])
def test_lfilter_rejects_any_other_filter(b, a):
    with pytest.raises(ValueError, match="first-order filter"):
        noise.lfilter(b, a, np.ones(5))


def test_lfilter_runs_from_rest_on_short_and_empty_input():
    assert noise.lfilter([1.0], [1.0, -0.5], np.array([])).size == 0
    assert np.array_equal(noise.lfilter([1.0], [1.0, -0.5], [2.0]), [2.0])
    assert np.array_equal(noise.lfilter([1.0], [1.0, -0.5], [1.0, 0.0, 0.0]),
                          [1.0, 0.5, 0.25])
