import numpy as np
import pytest

from tripodholo import (
    ControlPath,
    Harmonics,
    NoiseSpec,
    Profile,
    fourier_path,
    latitude_loop,
    lune_path,
    perturb,
    mc_delta,
    sample_realization,
    solid_angle,
)
from tripodholo.experiments import ExcludedRealizationsError, _mc_grid
from tripodholo.paths import _Knots


class FakeRealization:
    def __init__(self, grid, dx):
        self.grid = np.asarray(grid, dtype=float)
        self.dx = np.asarray(dx, dtype=float)


def test_latitude_loop_examples():
    path = latitude_loop(np.pi / 2, 1.0)
    s = np.linspace(0, 1, 9)
    x = path.x(s)
    assert np.allclose(x, np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s),
                                    np.zeros_like(s)], axis=1), atol=1e-12)
    path = latitude_loop(np.pi / 3, 1.0)
    assert np.allclose(path.x(s)[:, 2], 0.5)
    path = latitude_loop(np.pi / 4, 2.0)
    assert np.allclose(np.linalg.norm(path.x(s), axis=1), 2.0)
    assert path.winding == 1


def test_latitude_loop_validation():
    with pytest.raises(ValueError):
        latitude_loop(0.0)
    with pytest.raises(ValueError):
        latitude_loop(np.pi)
    with pytest.raises(ValueError):
        latitude_loop(1.0, r0=0.0)


def test_lune_path_closure_and_legs():
    path = lune_path(np.pi / 2, 1e-3)
    x0, x1 = path.x(0.0), path.x(1.0)
    assert np.linalg.norm(x0 / np.linalg.norm(x0) - x1 / np.linalg.norm(x1)) < 1e-10
    assert path.winding == 0
    # the equator leg sits at theta = pi/2, the closing arc at theta = delta
    assert path.theta(0.375) == pytest.approx(np.pi / 2)
    assert path.theta(0.875) == pytest.approx(1e-3)
    assert path.phi(0.375) == pytest.approx(np.pi / 2 * 0.5, abs=0.3)


_PROBES = np.concatenate([np.random.default_rng(23).uniform(0.0, 1.0, 10_000),
                          [0.0, 0.25, 0.5, 0.75, 1.0]])


def _lune_reference(s, dphi, delta):
    """The lune's legs written out one by one: values and rates of theta
    and phi."""
    u = np.clip(4.0 * s, 0.0, 4.0)
    leg = np.minimum(np.floor(u), 3.0)
    v = u - leg
    h = v - np.sin(2.0 * np.pi * v) / (2.0 * np.pi)
    hd = (1.0 - np.cos(2.0 * np.pi * v)) * 4.0
    legs = [leg == k for k in range(4)]
    half_pi, zero = np.pi / 2.0, np.zeros_like(s)
    theta = np.select(legs, [delta + (half_pi - delta) * h, zero + half_pi,
                             half_pi - (half_pi - delta) * h, zero + delta])
    theta_d = np.select(legs, [(half_pi - delta) * hd, zero,
                               -(half_pi - delta) * hd, zero])
    phi = np.select(legs, [zero, dphi * h, zero + dphi, dphi * (1.0 - h)])
    phi_d = np.select(legs, [zero, dphi * hd, zero, -dphi * hd])
    return theta, theta_d, phi, phi_d


@pytest.mark.parametrize("dphi", [1e-6, 0.3, np.pi / 2, 3.0, 2 * np.pi - 1e-6])
@pytest.mark.parametrize("delta", [1e-3, 0.3])
def test_lune_profiles_equal_their_closed_forms(dphi, delta):
    path = lune_path(dphi, delta)
    theta, theta_d, phi, phi_d = _lune_reference(_PROBES, dphi, delta)
    assert np.array_equal(path.theta(_PROBES), theta)
    assert np.array_equal(path.theta.derivative(_PROBES), theta_d)
    assert np.array_equal(path.phi(_PROBES), phi)
    assert np.array_equal(path.phi.derivative(_PROBES), phi_d)
    assert np.array_equal(path.radius(_PROBES), np.ones_like(_PROBES))
    assert np.array_equal(path.radius.derivative(_PROBES), np.zeros_like(_PROBES))


@pytest.mark.parametrize("theta0, r0", [(1e-3, 1.0), (np.pi / 3, 0.2), (1.1, 1.7),
                                        (np.pi - 1e-3, 40.0)])
def test_latitude_profiles_equal_their_closed_forms(theta0, r0):
    path = latitude_loop(theta0, r0)
    s = _PROBES
    assert np.array_equal(path.theta(s), np.full_like(s, theta0))
    assert np.array_equal(path.theta.derivative(s), np.zeros_like(s))
    assert np.array_equal(path.phi(s), 2.0 * np.pi * s)
    assert np.array_equal(path.phi.derivative(s), np.full_like(s, 2.0 * np.pi))
    assert np.array_equal(path.radius(s), np.full_like(s, r0))
    assert np.array_equal(path.radius.derivative(s), np.zeros_like(s))


@pytest.mark.parametrize("profile", [
    Harmonics(1.2, sin=(0.25, 0.1), cos=(0.05,)),
    Harmonics(0.3, slope=2 * np.pi, sin=(0.2,), cos=(0.1, -0.05, 0.02)),
    Harmonics(1.0, slope=0.5),
    lune_path(0.3).theta,
], ids=["more-sines", "more-cosines", "no-harmonics", "lune-legs"])
def test_value_and_derivative_together_equal_the_separate_calls(profile):
    # Callers that need both share each harmonic's sine and cosine; the
    # sums keep their order, so the values keep every bit.
    for s in (_PROBES, 0.3):
        value, rate = profile._value_and_derivative(s)
        assert np.array_equal(value, profile(s))
        assert np.array_equal(rate, profile.derivative(s))


def test_lune_path_validation():
    with pytest.raises(ValueError):
        lune_path(0.0)
    with pytest.raises(ValueError):
        lune_path(2 * np.pi)
    with pytest.raises(ValueError):
        lune_path(np.pi / 2, delta=0.0)


def test_fourier_path_accepts_valid_and_nonperiodic_r():
    path = fourier_path(
        Harmonics(offset=np.pi / 2, sin=(0.3,)),
        Harmonics(offset=0.0, slope=2 * np.pi),
        Harmonics(offset=1.0),
    )
    assert path.winding == 1
    drifting = fourier_path(
        Harmonics(offset=np.pi / 2, sin=(0.3,)),
        Harmonics(offset=0.0, slope=2 * np.pi),
        Harmonics(offset=1.0, slope=0.5),
    )
    assert float(drifting.radius(1.0)) == pytest.approx(1.5)
    assert float(drifting.radius(0.0)) == pytest.approx(1.0)


def test_fourier_path_rejects_theta_escape():
    with pytest.raises(ValueError):
        fourier_path(
            Harmonics(offset=0.1, sin=(3.2,)),
            Harmonics(offset=0.0, slope=2 * np.pi),
            Harmonics(offset=1.0),
        )
    with pytest.raises(ValueError, match="slope must be zero"):
        fourier_path(
            Harmonics(offset=1.0, slope=0.1),
            Harmonics(offset=0.0, slope=2 * np.pi),
            Harmonics(offset=1.0),
        )


def test_fourier_path_rejects_bad_phi_and_r():
    with pytest.raises(ValueError):
        fourier_path(
            Harmonics(offset=1.0),
            Harmonics(offset=0.0, slope=1.23),
            Harmonics(offset=1.0),
        )
    with pytest.raises(ValueError):
        fourier_path(
            Harmonics(offset=1.0),
            Harmonics(offset=0.0, slope=2 * np.pi),
            Harmonics(offset=0.2, slope=-0.5),
        )


def test_sample_derivative_consistency_and_convergence():
    path = fourier_path(
        Harmonics(offset=1.3, sin=(0.2,), cos=(0.0, 0.05)),
        Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.15,)),
        Harmonics(offset=1.0, slope=0.3),
    )

    def max_fd_error(n):
        s = np.linspace(0.0, 1.0, n + 1)
        xhat = path.xhat(s)
        fd = (xhat[2:] - xhat[:-2]) / (2 * (s[1] - s[0]))
        return float(np.max(np.abs(fd - path.xhat_dot(s[1:-1]))))

    e1, e2 = max_fd_error(256), max_fd_error(512)
    assert 3.0 < e1 / e2 < 5.0


def test_perturb_zero_noise_is_identity():
    path = latitude_loop(1.0, 1.0)
    grid = np.linspace(0.0, 50.0, 2001)
    real = FakeRealization(grid, np.zeros((2001, 3)))
    same = perturb(path, real)
    s = np.linspace(0, 1, 97)
    assert np.allclose(same.x(s), path.x(s), atol=1e-9)


def test_perturb_radial_shift():
    path = latitude_loop(1.0, 1.0)
    grid = np.linspace(0.0, 10.0, 4001)
    s = grid / grid[-1]
    c = 0.05
    real = FakeRealization(grid, c * path.xhat(s))
    shifted = perturb(path, real)
    assert np.allclose(shifted.x(s), (1.0 + c) * path.xhat(s), rtol=0.0, atol=1e-15)
    assert np.allclose(shifted.radius(s), 1.0 + c, rtol=0.0, atol=1e-15)


def test_perturb_pinned_ou_preserves_closure():
    path = latitude_loop(1.0, 1.0)
    spec = NoiseSpec.uniform(0.03, 0.5, seed=21)
    grid = np.linspace(0.0, 40.0, 2001)
    real = sample_realization(spec, grid, 0)
    pp = perturb(path, real)
    x = pp.x(grid / grid[-1])
    assert np.array_equal(pp.radius(grid / grid[-1]), np.linalg.norm(x, axis=1))
    xh0, xh1 = x[0] / np.linalg.norm(x[0]), x[-1] / np.linalg.norm(x[-1])
    assert np.linalg.norm(xh0 - xh1) < 1e-10
    # The shadow still winds once about the z axis.
    phi = np.unwrap(np.arctan2(x[:, 1], x[:, 0]))
    assert round((phi[-1] - phi[0]) / (2 * np.pi)) == path.winding


def test_perturb_rejects_unpinned_and_near_origin():
    path = latitude_loop(1.0, 1.0)
    grid = np.linspace(0.0, 10.0, 2001)
    dx = np.zeros((2001, 3))
    dx[-1] = [0.05, 0.0, 0.0]
    with pytest.raises(ValueError, match="pinned"):
        perturb(path, FakeRealization(grid, dx))
    s = grid / grid[-1]
    toward_origin = -0.95 * path.x(s)
    with pytest.raises(ValueError, match="origin"):
        perturb(path, FakeRealization(grid, toward_origin))


def test_perturb_rejects_a_misshaped_realization():
    grid = np.linspace(0.0, 10.0, 11)
    with pytest.raises(ValueError, match=r"must have shape \(len\(grid\), 3\)"):
        perturb(latitude_loop(1.0), FakeRealization(grid, np.zeros((10, 3))))
    for grid in (np.linspace(0.0, 10.0, 3), np.array([0.0, 2.0, 1.0, 5.0, 10.0])):
        with pytest.raises(ValueError, match="at least 4 increasing times"):
            perturb(latitude_loop(1.0), FakeRealization(grid, np.zeros((grid.size, 3))))


def test_perturb_rejects_non_finite_realizations():
    # NaN compares False, so without a finiteness check it passes the origin
    # and closure checks and fails later in the winding snap.
    path = latitude_loop(1.0, 1.0)
    grid = np.linspace(0.0, 10.0, 2001)
    dx = np.zeros((2001, 3))
    dx[1000, 1] = np.nan
    with pytest.raises(ValueError, match="realization dx is not finite at t = 5$"):
        perturb(path, FakeRealization(grid, dx))
    dx = np.zeros((2001, 3))
    dx[-1, 2] = np.inf
    with pytest.raises(ValueError, match="realization dx is not finite at t = 10$"):
        perturb(path, FakeRealization(grid, dx))


def test_perturb_names_a_non_finite_knot_off_the_check_grid():
    # theta is NaN at s = 0.0015 only, a knot of the realization grid but not
    # of ControlPath's 1025-point check grid, so the path constructs, and only
    # perturb's check of the path's values at the knots sees the NaN.
    grid = np.linspace(0.0, 10.0, 2001)
    bad = grid[3] / grid[-1]
    assert bad not in np.linspace(0.0, 1.0, 1025)
    base = latitude_loop(1.0)
    path = ControlPath(
        theta=Profile(fn=lambda s: np.where(s == bad, np.nan, 1.0), dfn=np.zeros_like),
        phi=base.phi,
        radius=base.radius,
    )
    with pytest.raises(ValueError, match="theta profile is not finite at s = 0.0015$"):
        perturb(path, FakeRealization(grid, np.zeros((grid.size, 3))))


def test_a_knot_the_profiles_fail_excludes_every_realization():
    # A path that constructs but is NaN at a knot of the noise grid: perturb
    # rejects each realization in its turn, so the ensemble is left empty.
    eps, spec = 0.02, NoiseSpec.uniform(0.01, 0.5, seed=0)
    base = latitude_loop(1.0)
    assert mc_delta(base, spec, eps, 2, "full_propagation").n_excluded == 0
    knots = _mc_grid(base, spec, 1.0 / eps)
    bad = knots[3] / knots[-1]
    assert bad not in np.linspace(0.0, 1.0, 1025)
    path = ControlPath(
        theta=Profile(fn=lambda s: np.where(s == bad, np.nan, 1.0), dfn=np.zeros_like),
        phi=base.phi,
        radius=base.radius,
    )
    with pytest.raises(ExcludedRealizationsError, match="2 of 2 excluded"):
        mc_delta(path, spec, eps, 2, "full_propagation")
    with pytest.raises(ValueError, match="theta profile is not finite at s = 0.0015$"):
        perturb(_Knots(path, knots / knots[-1]),
                FakeRealization(knots, np.zeros((knots.size, 3))))


def test_perturb_on_shared_knots_matches_perturb_on_the_path():
    # Knots shared across realizations give the drive perturb builds from
    # the path, to the bit, on their own grid and, rebuilt, on another;
    # the second drive on the same grid reads the nominal x from memory.
    path = latitude_loop(1.0, 1.0)
    spec = NoiseSpec.uniform(0.03, 0.5, seed=21)
    grid = np.linspace(0.0, 40.0, 2001)
    knots = _Knots(path, grid / grid[-1], remember=True)
    s = np.linspace(0.0, 1.0, 257)
    for other in (grid, np.linspace(0.0, 40.0, 1001)):
        for idx in range(2):
            real = sample_realization(spec, other, idx)
            shared, own = perturb(knots, real), perturb(path, real)
            assert np.array_equal(shared.grid, own.grid)
            assert np.array_equal(shared.x(s), own.x(s))
            assert np.array_equal(shared.radius(s[::2]), own.radius(s[::2]))


def test_x_and_xhat_follow_the_profiles():
    # x and xhat evaluate the spherical formula from the path's own
    # profiles, to the bit.
    probes = np.concatenate([np.linspace(0.0, 1.0, 2001),
                             np.random.default_rng(5).uniform(0.0, 1.0, 500)])
    fourier = fourier_path(
        Harmonics(offset=1.2, sin=(0.2,)),
        Harmonics(offset=0.0, slope=2 * np.pi, cos=(0.1,)),
        Harmonics(offset=1.0, slope=0.3),
    )
    for path in (fourier, latitude_loop(0.7, 1.3), lune_path(2.0)):
        th, ph, rr = path.theta(probes), path.phi(probes), path.radius(probes)
        st = np.sin(th)
        xhat = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)
        assert np.array_equal(path.xhat(probes), xhat)
        assert np.array_equal(path.x(probes), rr[:, None] * xhat)


def test_arc_length_latitudes():
    assert solid_angle(latitude_loop(np.pi / 2, 1.0)).arc_length == pytest.approx(2 * np.pi)
    for theta0, r0 in [(np.pi / 3, 1.0), (np.pi / 3, 2.5), (0.4, 0.7)]:
        assert solid_angle(latitude_loop(theta0, r0)).arc_length == pytest.approx(
            2 * np.pi * np.sin(theta0), rel=1e-8)


def test_arc_length_reparametrization_invariance():
    cubic = ControlPath(
        theta=Profile(fn=lambda s: np.full_like(s, np.pi / 2), dfn=np.zeros_like),
        phi=Profile(fn=lambda s: 2 * np.pi * np.asarray(s, float) ** 3,
                    dfn=lambda s: 6 * np.pi * np.asarray(s, float) ** 2),
        radius=Profile(fn=np.ones_like, dfn=np.zeros_like),
    )
    assert solid_angle(cubic).arc_length == pytest.approx(2 * np.pi, rel=1e-8)


def test_control_path_validation():
    with pytest.raises(ValueError, match="periodic"):
        ControlPath(
            theta=Profile(fn=lambda s: 1.0 + 0.5 * s, dfn=lambda s: np.full_like(s, 0.5)),
            phi=Profile(fn=np.zeros_like, dfn=np.zeros_like),
            radius=Profile(fn=np.ones_like, dfn=np.zeros_like),
        )
    with pytest.raises(ValueError, match="positive"):
        ControlPath(
            theta=Profile(fn=lambda s: np.full_like(s, 1.0), dfn=np.zeros_like),
            phi=Profile(fn=lambda s: 2 * np.pi * s, dfn=lambda s: np.full_like(s, 2 * np.pi)),
            radius=Profile(fn=lambda s: 1.0 - 1.5 * s, dfn=lambda s: np.full_like(s, -1.5)),
        )


def test_control_path_rejects_theta_outside_the_sphere_and_a_fractional_winding():
    with pytest.raises(ValueError, match=r"within \[0, pi\]"):
        ControlPath(theta=Harmonics(4.0), phi=Harmonics(0.0, slope=2 * np.pi),
                    radius=Harmonics(1.0))
    # Away from a pole the closure check rejects a fractional winding first;
    # at theta = 2e-6 the unit vector closes to 2e-11 while phi gains
    # 2 pi + 1e-5.
    with pytest.raises(ValueError, match="integer multiple of 2 pi"):
        ControlPath(theta=Harmonics(2e-6), phi=Harmonics(0.0, slope=2 * np.pi + 1e-5),
                    radius=Harmonics(1.0))


def test_control_path_rejects_non_finite_profiles():
    # NaN fails every comparison, so a range check alone lets these through.
    def bump(s):
        s = np.asarray(s, float)
        return np.where((s > 0.3) & (s < 0.6), np.nan, 1.0)

    def flat(s):
        return 0.0 * bump(s)

    with pytest.raises(ValueError, match="theta profile is not finite at s = 0.300781"):
        ControlPath(theta=Profile(fn=bump, dfn=flat),
                    phi=Profile(fn=lambda s: 2 * np.pi * s,
                                dfn=lambda s: np.full_like(s, 2 * np.pi)),
                    radius=Profile(fn=np.ones_like, dfn=np.zeros_like))
    with pytest.raises(ValueError, match="radius profile is not finite"):
        ControlPath(theta=Profile(fn=lambda s: np.full_like(s, 1.0), dfn=np.zeros_like),
                    phi=Profile(fn=lambda s: 2 * np.pi * s,
                                dfn=lambda s: np.full_like(s, 2 * np.pi)),
                    radius=Profile(fn=bump, dfn=flat))
    with pytest.raises(ValueError, match="phi profile is not finite"):
        ControlPath(theta=Profile(fn=lambda s: np.full_like(s, 1.0), dfn=np.zeros_like),
                    phi=Profile(fn=lambda s: 2 * np.pi * s * bump(s),
                                dfn=lambda s: 2 * np.pi * bump(s)),
                    radius=Profile(fn=np.ones_like, dfn=np.zeros_like))
