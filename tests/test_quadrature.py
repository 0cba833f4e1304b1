"""The in-house Gauss-Kronrod rule against scipy.integrate, bit for bit.
scipy appears here only as the oracle; the library never imports it."""

import numpy as np
import pytest
from scipy.integrate import cubature
from scipy.integrate._rules import GaussKronrodQuadrature, ProductNestedFixed
from scipy.special import roots_legendre

from tripodholo import (
    Harmonics,
    NoiseSpec,
    fourier_path,
    holonomy,
    latitude_loop,
    lune_path,
    paths,
    quadrature,
)


def random_path(family: str, rng: np.random.Generator):
    """A constant-amplitude latitude, lune or fourier loop with random shape."""
    if family == "latitude":
        return latitude_loop(rng.uniform(0.3, np.pi - 0.3))
    if family == "lune":
        return lune_path(rng.uniform(0.1, 2 * np.pi - 0.1), rng.uniform(1e-3, 0.3))
    theta = Harmonics(offset=rng.uniform(1.1, np.pi - 1.1),
                      sin=tuple(rng.uniform(-0.2, 0.2, rng.integers(0, 3))),
                      cos=tuple(rng.uniform(-0.2, 0.2, rng.integers(0, 3))))
    phi = Harmonics(offset=rng.uniform(-np.pi, np.pi), slope=2 * np.pi * rng.integers(1, 3),
                    sin=tuple(rng.uniform(-0.8, 0.8, rng.integers(0, 3))),
                    cos=tuple(rng.uniform(-0.8, 0.8, rng.integers(0, 3))))
    return fourier_path(theta, phi, Harmonics(1.0))


def integrands(path, monkeypatch):
    """The integrands the library hands to integrate_path for this path,
    solid_angle's three rows and delta_variance_analytic's three squared
    kernel components, plus the path's shadow speed as a scalar integrand
    for the f -> (len(s),) branch."""

    def speed(s):
        return paths.shadow_speed(path.theta(s), path.theta.derivative(s),
                                  path.phi.derivative(s))

    seen = []
    integrate_path = quadrature.integrate_path

    def capture(f):
        seen.append(f)
        return integrate_path(f)

    with monkeypatch.context() as m:
        m.setattr(holonomy, "integrate_path", capture)
        holonomy.solid_angle(path)
        holonomy.delta_variance_analytic(path, NoiseSpec.uniform(0.01, 0.5), 1.0)
    assert len(seen) == 2
    return seen + [speed]


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def test_constants_are_scipys_to_the_bit():
    nodes, weights = roots_legendre(10)
    assert bits(quadrature._GAUSS_NODES) == bits(nodes)
    assert bits(quadrature._GAUSS_WEIGHTS) == bits(weights)
    nodes, weights = GaussKronrodQuadrature(21).nodes_and_weights
    assert bits(quadrature._KRONROD_NODES) == bits(nodes)
    assert bits(quadrature._KRONROD_WEIGHTS) == bits(weights)


@pytest.mark.parametrize("family", ["latitude", "lune", "fourier"])
def test_gauss_kronrod_matches_scipy_cubature(family, monkeypatch):
    rule = ProductNestedFixed([GaussKronrodQuadrature(21)])
    rng = np.random.default_rng({"latitude": 11, "lune": 12, "fourier": 13}[family])
    for _ in range(8):
        path = random_path(family, rng)
        for f in integrands(path, monkeypatch):
            def scipy_f(x, f=f):
                return f(x[:, 0]).T

            # One interval: the Kronrod estimate and the |K - G| error.
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            est, err = quadrature._gk21(f, a, b)
            assert bits(est) == bits(rule.estimate(scipy_f, np.array([a]), np.array([b])))
            assert bits(err) == bits(
                rule.estimate_error(scipy_f, np.array([a]), np.array([b])))

            # The adaptive integral over [0, 1], and how often it split.
            calls = []

            def counted(s, f=f):
                calls.append(s.size)
                return f(s)

            ours = quadrature.integrate_path(counted)
            ref = cubature(scipy_f, [0.0], [1.0], rtol=quadrature.RTOL, atol=quadrature.ATOL)
            assert ref.status == "converged"
            assert bits(ours) == bits(ref.estimate)
            # One call on the 31 nodes for the whole interval, then two per
            # subdivision.
            assert set(calls) == {31}
            assert len(calls) == 1 + 2 * ref.subdivisions

