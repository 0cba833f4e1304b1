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

    def _value_and_derivative(self, s):
        """(self(s), self.derivative(s)), for callers that need both."""
        s = np.asarray(s, dtype=float)
        return self.fn(s), self.dfn(s)


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

    def _value_and_derivative(self, s):
        """(self(s), self.derivative(s)) to the bit, with each harmonic's
        2 pi k s, sine and cosine formed once for both; both sums keep
        their order."""
        s = np.asarray(s, dtype=float)
        args = [2.0 * np.pi * k * s
                for k in range(1, max(len(self.sin), len(self.cos)) + 1)]
        sines = [np.sin(arg) for arg in args]
        cosines = [np.cos(arg) for arg in args]
        value = self.offset + self.slope * s
        rate = np.full_like(s, self.slope)
        for k, a in enumerate(self.sin, start=1):
            value = value + a * sines[k - 1]
            rate = rate + a * 2.0 * np.pi * k * cosines[k - 1]
        for k, a in enumerate(self.cos, start=1):
            value = value + a * cosines[k - 1]
            rate = rate - a * 2.0 * np.pi * k * sines[k - 1]
        return value, rate


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
        th, thd = self.theta._value_and_derivative(s)
        ph, phd = self.phi._value_and_derivative(s)
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


class _Knots:
    """The nominal path's values that perturb adds a realization to, at the
    knots s of its time grid: one per ensemble, shared by every realization.

    It holds the outcome of the profile checks at the knots, the nominal
    x = r xhat there as (3, len(s)) rows, and min r over ControlPath's check
    grid. With remember, x(s) also keeps path.x at every array of s it is
    asked for, so that the lab propagation of each perturbed drive reads the
    nominal drive at its step-count grid and step midpoints from memory:
    32 B per step (s and x), for each step count the realizations take. The
    knots perturb builds for a single realization do not remember, so that
    its propagation's memory does not grow with the step count.
    """

    def __init__(self, path: ControlPath, s: np.ndarray, remember: bool = False):
        self.path = path
        self.s = s
        #: The profile check's message, raised by perturb in its place among
        #: the other checks; xr and r_min stay None when it is set.
        self.error = self.xr = self.r_min = None
        self._memo = {} if remember else None
        th, ph, r = path.spherical(s)
        # ControlPath checks its profiles on a fixed grid; the knots may fall
        # between its points.
        try:
            _check_profiles(s, th, ph, r)
        except ValueError as exc:
            self.error = str(exc)
            return
        self.xr = r * _unit_vector(th, ph, axis=0)
        self.r_min = float(np.min(path.radius(np.linspace(0.0, 1.0, 1025))))

    def x(self, s: np.ndarray) -> np.ndarray:
        """path.x(s), from memory when s equals an array asked for before."""
        if self._memo is None:
            return self.path.x(s)
        key = (s.shape, s.flat[0], s.flat[-1])
        hit = self._memo.get(key)
        if hit is not None and np.array_equal(hit[0], s):
            return hit[1]
        x = self.path.x(s)
        x.flags.writeable = False
        self._memo[key] = (s.copy(), x)
        return x


@dataclass(frozen=True, eq=False)
class _PerturbedDrive:
    """Drive x(s) = path.x(s) + dx(s), with dx taken linearly between the
    knots it is given at: the drive perturb returns. It has the two members
    a propagation reads, x and radius."""

    knots: _Knots
    #: The perturbation at the knots, one row per axis: shape (3, len(grid)).
    dx: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        """The knots s = t / t[-1] of the realization's time grid."""
        return self.knots.s

    def x(self, s):
        s = np.asarray(s, dtype=float)
        shift = np.stack([np.interp(s, self.grid, row) for row in self.dx], axis=-1)
        return self.knots.x(s) + shift

    def radius(self, s):
        return np.linalg.norm(self.x(s), axis=-1)


def perturb(path: ControlPath | _Knots, realization) -> _PerturbedDrive:
    """The drive x' = x + dx of the path with the realization's Cartesian
    perturbation added.

    The noise is only known at the realization's grid times, so the drive
    takes it linearly between them: at each knot s = t / t[-1], x' is
    path.x(s) + dx to the bit. The realization must be finite, on a grid of
    at least 4 increasing times, and preserve unit-vector closure, which
    pinned noise does by construction; the path's profiles must pass
    ControlPath's checks at the knots. Perturbations that drive the curve
    near the origin (|x'| < 0.1 min r at a knot) are rejected because the
    spectral gap would collapse.

    An ensemble passes the _Knots of its grid in place of the path, so that
    the nominal values are evaluated once for all its realizations; a path,
    or knots of another grid, gets knots built here.
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
    knots = path
    if not isinstance(knots, _Knots):
        knots = _Knots(path, s)
    elif not np.array_equal(knots.s, s):
        knots = _Knots(knots.path, s)
    if knots.error is not None:
        raise ValueError(knots.error)
    # On contiguous (3, n) rows: x is path.x(s) + dx, transposed, to the bit.
    dx = np.ascontiguousarray(dx.T)
    x = knots.xr + dx
    rr = np.linalg.norm(x, axis=0)
    if np.min(rr) < 0.1 * knots.r_min:
        raise ValueError("perturbation drives the curve too close to the origin")
    if np.linalg.norm(x[:, 0] / rr[0] - x[:, -1] / rr[-1]) > _CLOSURE_TOL:
        raise ValueError(
            "realization breaks unit-vector periodicity; use a pinned realization"
        )
    return _PerturbedDrive(knots, dx)


def shadow_speed(theta, theta_dot, phi_dot):
    """Speed |d x^/ds| = sqrt(theta'^2 + (sin(theta) phi')^2) of the
    unit-sphere shadow, from theta and the derivatives theta', phi' at the
    same points."""
    return np.sqrt(theta_dot ** 2 + (np.sin(theta) * phi_dot) ** 2)
