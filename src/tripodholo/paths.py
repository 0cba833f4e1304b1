"""Control-path families: the driving curves x(t) in parameter space.

A path is described by three profiles theta(s), phi(s), r(s) of normalized
time s in [0, 1]. phi is stored unwrapped (continuous), so the winding number
(phi(1) - phi(0)) / 2pi is an exact integer for valid paths. The unit vector
must close, x^(0) = x^(1); the norm r may end anywhere positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tripod

_CLOSURE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Profile:
    """Scalar function of normalized time and its exact derivative.

    Both callables must accept numpy arrays.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def derivative(self, s):
        return self.dfn(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class Harmonics:
    """Harmonic profile offset + slope*s + sum_k sin_k sin(2 pi k s)
    + cos_k cos(2 pi k s), called like a Profile, with its exact derivative."""

    offset: float
    slope: float = 0.0
    sin: tuple[float, ...] = ()
    cos: tuple[float, ...] = ()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self.offset + self.slope * s
        for k, a in enumerate(self.sin, start=1):
            out = out + a * np.sin(2.0 * np.pi * k * s)
        for k, a in enumerate(self.cos, start=1):
            out = out + a * np.cos(2.0 * np.pi * k * s)
        return out

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, self.slope)
        for k, a in enumerate(self.sin, start=1):
            out = out + a * 2.0 * np.pi * k * np.cos(2.0 * np.pi * k * s)
        for k, a in enumerate(self.cos, start=1):
            out = out - a * 2.0 * np.pi * k * np.sin(2.0 * np.pi * k * s)
        return out


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Driving curve x(s) = r(s) (sin th cos ph, sin th sin ph, cos th).

    Profiles are immutable after construction; evaluation is pure. The
    physical period T = 1/epsilon is a propagator argument, not part of
    the path: the same geometric loop can be driven at any speed.
    """

    theta: Profile | Harmonics
    phi: Profile | Harmonics
    radius: Profile | Harmonics
    #: Native sample points of a spline-backed path, None for a function-backed
    #: one; derived from the profiles, never passed in.
    grid = None

    def __post_init__(self):
        dense = np.linspace(0.0, 1.0, 1025)
        th, ph, rr = self.spherical(dense)
        _check_profiles(dense, th, ph, rr)
        x0 = self.x(0.0)
        x1 = self.x(1.0)
        xh0 = x0 / np.linalg.norm(x0)
        xh1 = x1 / np.linalg.norm(x1)
        if np.linalg.norm(xh0 - xh1) > _CLOSURE_TOL:
            raise ValueError("unit vector must be periodic: x^(0) != x^(1)")
        if np.sin(th[0]) > 1e-6:
            w = (float(self.phi(1.0)) - float(self.phi(0.0))) / (2.0 * np.pi)
            if abs(w - round(w)) > 1e-8:
                raise ValueError("phi(1) - phi(0) must be an integer multiple of 2 pi")

    @property
    def winding(self) -> int:
        return int(round((float(self.phi(1.0)) - float(self.phi(0.0))) / (2.0 * np.pi)))

    def spherical(self, s):
        """theta(s), phi(s) and r(s), the profiles x and xhat are built from."""
        s = np.asarray(s, dtype=float)
        return self.theta(s), self.phi(s), self.radius(s)

    def xhat(self, s):
        th, ph, _ = self.spherical(s)
        return _unit_vector(th, ph)

    def x(self, s):
        th, ph, rr = self.spherical(s)
        return rr[..., None] * _unit_vector(th, ph)

    def xhat_dot(self, s):
        """d x^/ds = theta' e_theta + phi' sin(theta) e_phi."""
        s = np.asarray(s, dtype=float)
        th = self.theta(s)
        ph = self.phi(s)
        thd = self.theta.derivative(s)
        phd = self.phi.derivative(s)
        f = tripod.frame(th, ph)
        return thd[..., None] * f.etheta + (phd * np.sin(th))[..., None] * f.ephi


def _check_profiles(s, th, ph, rr) -> None:
    """Raise ValueError unless theta, phi and r, sampled at s, are finite,
    r is positive and theta lies in [0, pi]."""
    # NaN compares False with everything, so the range checks below
    # would let a non-finite profile through.
    for name, values in (("theta", th), ("phi", ph), ("radius", rr)):
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise ValueError(f"{name} profile is not finite at "
                             f"s = {float(s[np.argmax(bad)]):.6g}")
    if np.min(rr) <= 0.0:
        raise ValueError("radius profile must stay positive")
    if np.min(th) < -1e-12 or np.max(th) > np.pi + 1e-12:
        raise ValueError("theta profile must stay within [0, pi]")


def _unit_vector(th, ph, axis=-1):
    st = np.sin(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=axis)


@dataclass(frozen=True, eq=False)
class _PiecewisePoly:
    """Piecewise polynomial on the increasing knots x: on [x[i], x[i+1]] it
    is sum_k c[k, ..., i] (s - x[i])^(K-1-k), K = len(c), one polynomial per
    index of c's middle axes; a call returns shape c.shape[1:-1] + s.shape.

    Its values are those of scipy's PPoly with the same coefficients, whose
    layout has the pieces on axis 1, to the bit: the same interval search,
    extrapolation from the end pieces and order of operations. PPoly's sum
    starts from 0.0 + c[K-1], so a -0.0 there may read as -0.0 here where
    PPoly gives +0.0. The evaluation copies no coefficients but those it
    gathers, one np.take for all polynomials.
    """

    x: np.ndarray
    c: np.ndarray

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        x = self.x
        # PPoly's find_interval with extrapolation: the last knot and beyond
        # fall in the last piece, points before the first knot in the first,
        # and NaN in the last, where it reads NaN as in PPoly.
        i = np.clip(np.searchsorted(x, s, "right") - 1, 0, x.size - 2)
        d = s - x[i]
        c = np.take(self.c, i, axis=-1)
        # _ppoly.evaluate_poly1's order: z runs through d, d d, (d d) d.
        res = c[-1] + c[-2] * d
        z = d
        for k in range(3, len(c) + 1):
            z = z * d
            res = res + c[-k] * z
        return res


@dataclass(frozen=True, eq=False)
class _SplinePath(ControlPath):
    """Path whose profiles are the rows of one vector spline of
    (theta, phi, r), so spherical evaluates all three in one pass."""

    spline: _PiecewisePoly

    def __post_init__(self):
        """Nothing to check: perturb has checked the knot values the spline
        interpolates."""

    @property
    def grid(self):
        return self.spline.x

    def spherical(self, s):
        th, ph, rr = self.spline(s)
        return th, ph, rr


def latitude_loop(theta0: float, r0: float = 1.0) -> ControlPath:
    """Circle of latitude theta0 traversed once at constant speed and norm."""
    if not 0.0 < theta0 < np.pi:
        raise ValueError("theta0 must lie strictly between 0 and pi")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    return ControlPath(
        theta=Harmonics(float(theta0)),
        phi=Harmonics(0.0, slope=2.0 * np.pi),
        radius=Harmonics(float(r0)),
    )


def _smoothstep(u):
    """Monotone [0,1] -> [0,1] map with vanishing derivative at both ends."""
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


def _smoothstep_d(u):
    return 1.0 - np.cos(2.0 * np.pi * u)


def lune_path(dphi: float, delta: float = 1e-3) -> ControlPath:
    """Pole-anchored loop: down the phi=0 meridian, along the equator by
    dphi, back up, closed by an arc at theta = delta.

    delta regularizes the pole (spherical coordinates are singular there);
    the enclosed angle tends to dphi as delta -> 0. The four legs join with
    zero angular velocity so the whole loop is C^1.
    """
    if not 0.0 < dphi < 2.0 * np.pi:
        raise ValueError("dphi must lie strictly between 0 and 2 pi")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    half_pi = np.pi / 2.0
    return ControlPath(
        theta=_legs((delta, half_pi, half_pi, delta),
                    (half_pi - delta, 0.0, -(half_pi - delta), 0.0)),
        phi=_legs((0.0, 0.0, dphi, 0.0), (0.0, dphi, 0.0, dphi)),
        radius=Harmonics(1.0),
    )


def _legs(start, rise) -> Profile:
    """Profile of four smoothstep legs, leg k on s in [k/4, (k+1)/4].

    Leg k runs from start[k] to start[k] + rise[k], except the closing leg
    (k = 3), which runs back from start[3] + rise[3] to start[3]: its value
    is start[3] + rise[3] (1 - h) and its rate carries the minus sign. That
    form keeps phi on the closing arc at dphi (1 - h) to the bit, where
    (start + rise) - rise h would round differently.
    """
    start = np.array(start, dtype=float)
    rise = np.array(rise, dtype=float)

    def split(s):
        u = np.clip(s * 4.0, 0.0, 4.0)
        leg = np.minimum(np.floor(u), 3.0).astype(int)
        return leg, u - leg

    def value(s):
        leg, v = split(s)
        h = _smoothstep(v)
        return start[leg] + rise[leg] * np.where(leg == 3, 1.0 - h, h)

    def rate(s):
        leg, v = split(s)
        hd = _smoothstep_d(v) * 4.0
        return rise[leg] * np.where(leg == 3, -hd, hd)

    return Profile(fn=value, dfn=rate)


def fourier_path(theta_coeffs: Harmonics, phi_coeffs: Harmonics,
                 r_coeffs: Harmonics) -> ControlPath:
    """Generic smooth path from harmonic coefficients.

    theta must stay strictly inside (0, pi) and must not drift (zero slope);
    phi's slope must be an integer multiple of 2 pi (the winding); r must
    stay positive but is free to end away from its start.
    """
    if theta_coeffs.slope != 0.0:
        raise ValueError("theta profile must be periodic: slope must be zero")
    w = phi_coeffs.slope / (2.0 * np.pi)
    if abs(w - round(w)) > 1e-10:
        raise ValueError("phi slope must be an integer multiple of 2 pi")
    dense = np.linspace(0.0, 1.0, 4097)
    th = theta_coeffs(dense)
    if np.min(th) <= 1e-9 or np.max(th) >= np.pi - 1e-9:
        raise ValueError("theta profile leaves the open interval (0, pi)")
    rr = r_coeffs(dense)
    if np.min(rr) <= 0.0:
        raise ValueError("radius profile must stay positive")
    return ControlPath(
        theta=theta_coeffs,
        phi=phi_coeffs,
        radius=r_coeffs,
    )


def _not_a_knot(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the not-a-knot cubic spline through the rows of y,
    shape (k, n), at the n >= 4 increasing knots s: the C-contiguous array
    of shape (4, k, n - 1) whose [:, j] fits row j, in _PiecewisePoly's
    layout.

    These are the operations scipy's CubicSpline runs for this case, on
    contiguous rows: one banded solve for the slopes at the knots, with the
    not-a-knot end rows, and the cubic Hermite coefficients of each
    interval. Each row is handled alone, so the result equals
    CubicSpline(s, y.T).c with its last two axes swapped, and that of a
    scalar fit per row, to the bit, but for the sign of a zero in the last
    two coefficients: those are stored plus 0.0, as PPoly's sum starts, so
    that the spline and its derivative read as CubicSpline's there too.
    """
    from scipy.linalg import solve_banded

    n = s.size
    h = np.diff(s)
    slope = np.diff(y, axis=1) / h
    band = np.zeros((3, n))
    band[1, 1:-1] = 2 * (h[:-1] + h[1:])
    band[0, 2:] = h[:-1]
    band[2, :-2] = h[1:]
    # The right-hand sides as rows of a Fortran array, which the solver
    # takes without a copy.
    rhs = np.empty((n, y.shape[0]), order="F").T
    rhs[:, 1:-1] = 3 * (h[1:] * slope[:, :-1] + h[:-1] * slope[:, 1:])
    d = s[2] - s[0]
    band[1, 0] = h[1]
    band[0, 1] = d
    rhs[:, 0] = ((h[0] + 2 * d) * h[1] * slope[:, 0] + h[0] * h[0] * slope[:, 1]) / d
    d = s[-1] - s[-3]
    band[1, -1] = h[-2]
    band[2, -2] = d
    rhs[:, -1] = (h[-1] * h[-1] * slope[:, -2] + (2 * d + h[-1]) * h[-2] * slope[:, -1]) / d
    m = solve_banded((1, 1), band, rhs.T, overwrite_ab=True, overwrite_b=True,
                     check_finite=False).T
    c = np.empty((4, y.shape[0], n - 1))
    t = (m[:, :-1] + m[:, 1:] - 2 * slope) / h
    np.divide(t, h, out=c[0])
    np.subtract((slope - m[:, :-1]) / h, t, out=c[1])
    np.add(m[:, :-1], 0.0, out=c[2])
    np.add(y[:, :-1], 0.0, out=c[3])
    return c


def perturb(path: ControlPath, realization) -> ControlPath:
    """Path with the realization's Cartesian perturbation added: x' = x + dx.

    The perturbed curve is re-expressed in spherical profiles (phi unwrapped
    continuously) backed by one vector not-a-knot cubic spline of
    (theta, phi, r), fitted directly on the realization grid and evaluated
    in numpy (_PiecewisePoly, scipy PPoly's bits without scipy.interpolate);
    theta, phi and radius read its rows, and x and xhat evaluate all three
    in one pass. The knot values get ControlPath's profile checks here,
    once, and the spline path skips the re-evaluation ControlPath would
    make. The realization must be finite, on a grid of at least 4
    increasing times, and preserve unit-vector closure, which pinned noise
    does by construction; perturbations that drive the curve near the
    origin (|x'| < 0.1 min r) are rejected because the spectral gap would
    collapse.
    """
    t = np.asarray(realization.grid, dtype=float)
    dx = np.asarray(realization.dx, dtype=float)
    if dx.shape != (t.size, 3):
        raise ValueError("realization dx must have shape (len(grid), 3)")
    # NaN compares False with everything, so the origin and closure checks
    # below would let a non-finite realization through.
    if not np.all(np.isfinite(dx)):
        k = int(np.argmin(np.isfinite(dx).all(axis=1)))
        raise ValueError(f"realization dx is not finite at t = {float(t[k]):.6g}")
    s = t / t[-1]
    if s.size < 4 or not np.all(np.diff(s) > 0.0):
        raise ValueError("realization grid must hold at least 4 increasing times")
    # The round trip runs on contiguous (3, n) rows: x is path.x(s) + dx,
    # transposed, and rr its norm, both to the bit.
    th, ph, r = path.spherical(s)
    x = r * _unit_vector(th, ph, axis=0) + dx.T
    rr = np.linalg.norm(x, axis=0)
    r_min = float(np.min(path.radius(np.linspace(0.0, 1.0, 1025))))
    if np.min(rr) < 0.1 * r_min:
        raise ValueError("perturbation drives the curve too close to the origin")
    x /= rr
    if np.linalg.norm(x[:, 0] - x[:, -1]) > _CLOSURE_TOL:
        raise ValueError(
            "realization breaks unit-vector periodicity; use a pinned realization"
        )
    y = np.stack([np.arccos(np.clip(x[2], -1.0, 1.0)),
                  np.unwrap(np.arctan2(x[1], x[0])), rr])
    # The checks ControlPath makes of its profiles. The closure check above
    # and the winding snap below stand for its other two.
    _check_profiles(s, *y)
    # Snap the endpoint so the winding bookkeeping stays exact under closure.
    phi = y[1]
    phi[-1] = phi[0] + 2.0 * np.pi * round((phi[-1] - phi[0]) / (2.0 * np.pi))
    c = _not_a_knot(s, y)
    rate = c[:3] * np.array([3.0, 2.0, 1.0])[:, None, None]
    return _SplinePath(
        # Profile k reads row k of the coefficients, without a refit; its
        # derivative's coefficients are those scaled by 3, 2 and 1.
        *(Profile(fn=_PiecewisePoly(s, c[:, k]), dfn=_PiecewisePoly(s, rate[:, k]))
          for k in range(3)),
        spline=_PiecewisePoly(s, c),
    )


def shadow_speed(theta, theta_dot, phi_dot):
    """Speed |d x^/ds| = sqrt(theta'^2 + (sin(theta) phi')^2) of the
    unit-sphere shadow, from theta and the derivatives theta', phi' at the
    same points."""
    return np.sqrt(theta_dot ** 2 + (np.sin(theta) * phi_dot) ** 2)


def arc_length(path: ControlPath) -> float:
    """Length of the unit-sphere shadow, invariant under reparametrization."""
    from .quadrature import integrate_path

    def speed(s):
        return shadow_speed(path.theta(s), path.theta.derivative(s),
                            path.phi.derivative(s))

    return integrate_path(path, speed)
