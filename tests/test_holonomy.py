import numpy as np
import pytest

from tripodholo import (
    ControlPath,
    Harmonics,
    NoiseSpec,
    Profile,
    arc_length,
    canonical_angle,
    connection,
    delta_omega_first_order,
    delta_variance_analytic,
    fourier_path,
    gate_from_connection,
    ideal_gate,
    latitude_loop,
    lune_path,
    perturb,
    r_rotation,
    sample_realization,
    solid_angle,
    spectral,
    thick_boundary_area,
)
from tripodholo.experiments import fit_power_law
from tripodholo.quadrature import integrate_path


GENERIC_FOURIER = fourier_path(
    Harmonics(offset=1.2, sin=(0.25,), cos=(0.0, 0.1)),
    Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.2,)),
    Harmonics(offset=1.0, slope=0.5),
)


def test_solid_angle_latitude():
    for theta0 in (np.pi / 3, np.pi / 2, 1.9):
        rep = solid_angle(latitude_loop(theta0, 1.0))
        assert rep.omega_cos == pytest.approx(2 * np.pi * np.cos(theta0), abs=1e-10)
        assert rep.omega_area == pytest.approx(2 * np.pi * (1 - np.cos(theta0)), abs=1e-10)
        assert rep.winding == 1
        assert rep.omega_cos + rep.omega_area == pytest.approx(2 * np.pi, abs=1e-8)


def test_solid_angle_lune_limit():
    values = []
    for delta in (1e-2, 1e-3, 1e-4):
        rep = solid_angle(lune_path(np.pi / 2, delta))
        assert rep.winding == 0
        assert rep.omega_cos + rep.omega_area == pytest.approx(0.0, abs=1e-8)
        values.append(rep.omega_cos)
    errors = [abs(v + np.pi / 2) for v in values]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-7


def test_winding_identity_on_families():
    multi = fourier_path(
        Harmonics(offset=1.3, sin=(0.2,)),
        Harmonics(offset=0.5, slope=4 * np.pi, sin=(0.3,)),
        Harmonics(offset=1.0, slope=0.2),
    )
    for path, w in [(latitude_loop(0.7), 1), (lune_path(1.1), 0),
                    (GENERIC_FOURIER, 1), (multi, 2)]:
        rep = solid_angle(path)
        assert rep.winding == w
        assert rep.omega_cos + rep.omega_area == pytest.approx(
            2 * np.pi * w, abs=1e-8)
        assert -np.pi < rep.omega_canonical <= np.pi


def test_solid_angle_reports_the_arc_length_in_the_same_integral():
    grid = np.linspace(0.0, 50.0, 2001)
    real = sample_realization(NoiseSpec.uniform(0.02, 0.5, seed=5), grid, 0)
    perturbed = perturb(GENERIC_FOURIER, real)
    assert perturbed.grid is not None
    for path in (latitude_loop(1.1), lune_path(np.pi / 2, 1e-3), GENERIC_FOURIER,
                 perturbed):
        assert solid_angle(path).arc_length == pytest.approx(arc_length(path),
                                                             rel=0.0, abs=1e-12)
    assert solid_angle(latitude_loop(1.1)).arc_length == pytest.approx(
        2 * np.pi * np.sin(1.1), rel=1e-12)


def test_solid_angle_rejects_pole():
    polar = ControlPath(
        theta=Profile(fn=lambda s: np.pi * np.abs(np.sin(np.pi * s)),
                      dfn=lambda s: np.pi ** 2 * np.cos(np.pi * s) * np.sign(np.sin(np.pi * s))),
        phi=Profile(fn=lambda s: 2 * np.pi * s, dfn=lambda s: np.full_like(s, 2 * np.pi)),
        radius=Profile(fn=np.ones_like, dfn=np.zeros_like),
    )
    with pytest.raises(ValueError, match="pole"):
        solid_angle(polar)


def test_ideal_gate_examples():
    assert np.allclose(ideal_gate(0.0), np.eye(2))
    assert np.allclose(ideal_gate(np.pi / 2), [[0, 1], [-1, 0]], atol=1e-15)
    assert np.allclose(ideal_gate(np.pi), -np.eye(2), atol=1e-15)
    assert np.allclose(ideal_gate(0.4), ideal_gate(0.4 + 2 * np.pi))
    m = ideal_gate(1.234)
    assert abs(np.linalg.det(m) - 1.0) < 1e-12
    assert np.linalg.norm(m @ m.T - np.eye(2)) < 1e-12


def test_canonical_angle():
    assert canonical_angle(np.pi) == pytest.approx(np.pi)
    assert canonical_angle(-np.pi) == pytest.approx(np.pi)
    assert canonical_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert canonical_angle(0.3 + 6 * np.pi) == pytest.approx(0.3)


def test_connection_latitude_constant():
    theta0 = np.pi / 3
    path = latitude_loop(theta0, 1.0)
    from tripodholo.tripod import rotation_generator

    expected = 1j * 2 * np.pi * np.cos(theta0) * rotation_generator(path.xhat(0.0))
    for s in (0.1, 0.5, 0.9):
        a = connection(path, s)
        assert np.linalg.norm(a - expected) < 1e-12
        assert np.linalg.norm(a - a.conj().T) < 1e-12


def test_connection_meridian_zero():
    # On the lune's meridian legs phi is frozen, so the connection vanishes.
    path = lune_path(np.pi / 2, 1e-3)
    assert np.linalg.norm(connection(path, 0.125)) < 1e-12
    assert np.linalg.norm(connection(path, 0.625)) < 1e-12


def test_connection_matches_finite_difference():
    path = GENERIC_FOURIER
    p0 = spectral(path.x(0.0)).p_zero.astype(complex)

    def fd_form(s, h):
        rp = r_rotation(path, s + h).astype(complex)
        rm = r_rotation(path, s - h).astype(complex)
        rinv = r_rotation(path, s).T.astype(complex)
        return 1j * p0 @ ((rp - rm) / (2 * h)) @ rinv @ p0

    rng = np.random.default_rng(7)
    for s in rng.uniform(0.05, 0.95, 10):
        closed = connection(path, s)
        d1 = np.linalg.norm(fd_form(s, 1e-3) - closed)
        d2 = np.linalg.norm(fd_form(s, 5e-4) - closed)
        assert d1 < 1e-3
        assert 3.0 < d1 / d2 < 5.0


def test_gate_from_connection_examples():
    assert np.allclose(gate_from_connection(latitude_loop(np.pi / 3)),
                       -np.eye(2), atol=1e-10)
    assert np.allclose(gate_from_connection(latitude_loop(np.pi / 2)),
                       np.eye(2), atol=1e-10)


def test_gate_reparametrization_invariance():
    smooth = ControlPath(
        theta=Profile(fn=lambda s: np.full_like(s, 1.1), dfn=np.zeros_like),
        phi=Profile(
            fn=lambda s: 2 * np.pi * (3 * np.asarray(s, float) ** 2
                                      - 2 * np.asarray(s, float) ** 3),
            dfn=lambda s: 12 * np.pi * np.asarray(s, float) * (1 - np.asarray(s, float)),
        ),
        radius=Profile(fn=np.ones_like, dfn=np.zeros_like),
    )
    uniform = latitude_loop(1.1, 1.0)
    assert np.linalg.norm(gate_from_connection(smooth)
                          - gate_from_connection(uniform)) < 1e-8
    assert solid_angle(smooth).omega_cos == pytest.approx(
        solid_angle(uniform).omega_cos, abs=1e-8)


def test_delta_omega_radial_is_zero():
    path = latitude_loop(np.pi / 3, 1.0)
    s = np.linspace(0, 1, 2001)
    radial = (1.3 + np.sin(2 * np.pi * s))[:, None] * path.xhat(s)
    assert abs(delta_omega_first_order(path, radial, s)) < 1e-14


def test_delta_omega_latitude_shift_vs_oracle():
    theta0, c = np.pi / 3, 1e-3
    path = latitude_loop(theta0, 1.0)
    s = np.linspace(0, 1, 4001)
    etheta = np.stack([np.cos(theta0) * np.cos(2 * np.pi * s),
                       np.cos(theta0) * np.sin(2 * np.pi * s),
                       -np.sin(theta0) * np.ones_like(s)], axis=1)
    lin = delta_omega_first_order(path, c * etheta, s)
    assert lin == pytest.approx(-2 * np.pi * c * np.sin(theta0), rel=1e-6)
    oracle = (solid_angle(latitude_loop(theta0 + c)).omega_cos
              - solid_angle(path).omega_cos)
    assert lin == pytest.approx(oracle, rel=0.01)


def test_delta_omega_defect_quadratic():
    path = latitude_loop(1.1, 1.0)
    grid = np.linspace(0.0, 1.0, 8001)
    direction = np.stack([np.sin(2 * np.pi * grid + 0.3),
                          np.cos(4 * np.pi * grid),
                          0.5 + 0.0 * grid], axis=1)
    window = np.sin(np.pi * grid)[:, None] ** 2
    omega0 = solid_angle(path).omega_cos
    sizes = [1e-1, 1e-2, 1e-3]
    defects = []
    for size in sizes:
        dx = size * window * direction
        lin = delta_omega_first_order(path, dx, grid)

        class R:
            pass

        real = R()
        real.grid, real.dx = grid, dx
        exact = solid_angle(perturb(path, real)).omega_cos - omega0
        defects.append(abs(lin - exact))
    slope = fit_power_law(sizes, defects).exponent
    assert abs(slope - 2.0) < 0.1


def test_delta_omega_first_order_is_the_same_on_any_time_grid():
    # A physical-time grid 0..T maps back to [0, 1] whether T is above or
    # below 1.
    path = latitude_loop(1.1, 1.0)
    s = np.linspace(0.0, 1.0, 4001)
    dx = 1e-3 * np.stack([np.sin(2 * np.pi * s + 0.3), np.cos(4 * np.pi * s),
                          0.5 + 0.0 * s], axis=1)
    normalized = delta_omega_first_order(path, dx, s)
    assert abs(normalized) > 1e-4
    for period in (0.5, 1.0, 2.0, 50.0):
        assert delta_omega_first_order(path, dx, period * s) == pytest.approx(
            normalized, rel=1e-12)


def test_delta_omega_first_order_rejects_a_misshaped_dx():
    s = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match=r"dx must have shape \(len\(grid\), 3\)"):
        delta_omega_first_order(latitude_loop(1.1, 1.0), np.zeros((101, 2)), s)


def test_delta_variance_closed_forms():
    spec = NoiseSpec.uniform(1.0, 1.0)
    t_period = 4 * np.pi ** 2
    assert delta_variance_analytic(latitude_loop(np.pi / 2), spec, t_period) == (
        pytest.approx(1.0, rel=1e-8))
    theta0, tau, sigma, period = 0.9, 0.02, 0.3, 70.0
    spec = NoiseSpec.uniform(sigma, tau)
    expected = tau * sigma ** 2 * (2 * np.pi * np.sin(theta0)) ** 2 / period
    assert delta_variance_analytic(latitude_loop(theta0), spec, period) == (
        pytest.approx(expected, rel=1e-8))
    assert delta_variance_analytic(latitude_loop(theta0), spec, 2 * period) == (
        pytest.approx(expected / 2, rel=1e-8))


def test_delta_variance_rejects_varying_radius():
    path = fourier_path(
        Harmonics(offset=1.2),
        Harmonics(offset=0.0, slope=2 * np.pi),
        Harmonics(offset=1.0, slope=0.5),
    )
    with pytest.raises(ValueError, match="constant"):
        delta_variance_analytic(path, NoiseSpec.uniform(0.1, 0.1), 10.0)


def test_thick_boundary_consistency():
    sigma, tau, period = 0.01, 0.3, 200.0
    for theta0 in (np.pi / 2, np.pi / 3):
        path = latitude_loop(theta0, 1.0)
        tb = thick_boundary_area(path, sigma, tau, period)
        assert tb.area == pytest.approx(2 * np.pi * sigma * np.sin(theta0), rel=1e-8)
        var = delta_variance_analytic(path, NoiseSpec.uniform(sigma, tau), period)
        assert tb.delta_sq == pytest.approx(var, abs=1e-10)
    tb = thick_boundary_area(latitude_loop(np.pi / 2), 0.01, tau, period)
    assert tb.area == pytest.approx(0.02 * np.pi, rel=1e-8)


def test_anisotropic_variance_component_faithful():
    # In-plane noise on the equator loop has no first-order effect: the
    # component-faithful kernel is exactly zero on axes 1 and 2.
    eq = latitude_loop(np.pi / 2, 1.0)
    axis1 = NoiseSpec(sigma=(0.05, 0.0, 0.0), tau=(0.1, 0.1, 0.1))
    assert delta_variance_analytic(eq, axis1, 50.0) == pytest.approx(0.0, abs=1e-14)
    axis3 = NoiseSpec(sigma=(0.0, 0.0, 0.05), tau=(0.1, 0.1, 0.1))
    full = NoiseSpec.uniform(0.05, 0.1)
    assert delta_variance_analytic(eq, axis3, 50.0) == pytest.approx(
        delta_variance_analytic(eq, full, 50.0), rel=1e-10)


@pytest.mark.parametrize("k", [64, 128, 256])
def test_solid_angle_resolves_fast_phi_harmonic(k):
    # omega_cos = cos(theta0) (phi(1) - phi(0)) whatever the harmonic; a
    # uniform-grid rule misses it once the harmonic outruns its grid.
    theta0 = 1.0
    path = fourier_path(Harmonics(offset=theta0),
                        Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.0,) * (k - 1) + (0.5,)),
                        Harmonics(offset=1.0))
    assert solid_angle(path).omega_cos == pytest.approx(
        2 * np.pi * np.cos(theta0), abs=1e-10)


def test_solid_angle_resolves_phi_corner_off_the_dyadic_points():
    theta0 = 1.0
    third = 1.0 / 3.0

    def phi(s):
        s = np.asarray(s, float)
        return 2 * np.pi * np.where(s < third, 2 * s, 2 * third + 0.5 * (s - third))

    def phi_d(s):
        return 2 * np.pi * np.where(np.asarray(s, float) < third, 2.0, 0.5)

    path = ControlPath(
        theta=Profile(fn=lambda s: np.full_like(s, theta0), dfn=np.zeros_like),
        phi=Profile(fn=phi, dfn=phi_d),
        radius=Profile(fn=np.ones_like, dfn=np.zeros_like),
    )
    assert solid_angle(path).omega_cos == pytest.approx(
        2 * np.pi * np.cos(theta0), abs=1e-9)


def test_integrate_path_rejects_non_finite_and_unconverged_integrals():
    path = latitude_loop(1.0)
    with pytest.raises(ValueError, match="not finite"):
        integrate_path(path, lambda s: np.full_like(s, np.nan))
    with pytest.raises(ValueError, match="did not converge in 10000 subdivisions"):
        integrate_path(path, lambda s: np.sign(np.sin(1e5 * s)))
