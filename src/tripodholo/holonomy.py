"""Analytic geometry of the gate.

The logical operation of an adiabatic loop is a rotation of the dark plane
by the oriented solid angle of the drive's unit-sphere shadow. This module
computes that angle in its two coordinate forms, the effective dark-plane
connection, the closed-form gate, and the first-order response of the angle
to parametric noise together with its variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tripod
from .paths import ControlPath, shadow_speed
from .quadrature import integrate_path


def canonical_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    y = np.remainder(float(x), 2.0 * np.pi)
    if y > np.pi:
        y -= 2.0 * np.pi
    return float(y)


def ideal_gate(omega: float) -> np.ndarray:
    """Dark-plane rotation by omega in the (e_theta, e_phi) basis: the 2x2
    matrix [[cos w, sin w], [-sin w, cos w]]."""
    c, s = np.cos(omega), np.sin(omega)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class SolidAngleReport:
    """Both coordinate forms of the loop's solid angle.

    omega_cos integrates cos(theta) dphi and is the angle the dynamics
    produces; omega_area integrates (1 - cos(theta)) dphi, the area form of
    the vector-potential picture. They differ by 2 pi times the winding
    number, so the gate matrix is identical either way. omega_canonical is
    omega_cos reduced to (-pi, pi] for reporting. arc_length is the length
    of the loop's unit-sphere shadow, the integral of |d x^/ds| over the
    loop, which does not depend on the parametrization.
    """

    omega_cos: float
    omega_area: float
    winding: int
    omega_canonical: float
    arc_length: float


def solid_angle(path: ControlPath) -> SolidAngleReport:
    """Both solid-angle forms and the shadow's arc length, from one
    quadrature call, plus the winding number."""
    dense = np.linspace(0.0, 1.0, 2049)
    th = path.theta(dense)
    if np.min(th) <= 0.0 or np.max(th) >= np.pi:
        raise ValueError(
            "path touches a coordinate pole; use a regularized representative"
        )

    def forms(s):
        theta = path.theta(s)
        c = np.cos(theta)
        phid = path.phi.derivative(s)
        return np.stack([c * phid, (1.0 - c) * phid,
                         shadow_speed(theta, path.theta.derivative(s), phid)])

    omega_cos, omega_area, length = (float(v) for v in integrate_path(forms))
    return SolidAngleReport(
        omega_cos=omega_cos,
        omega_area=omega_area,
        winding=path.winding,
        omega_canonical=canonical_angle(omega_cos),
        arc_length=length,
    )


def connection(path: ControlPath, s: float) -> np.ndarray:
    """Effective dark-plane generator at s: i phi' cos(theta) J . x^(0).

    This is the closed-form limit of i P0 (dR/ds) R^-1 P0; it is Hermitian,
    and all its values along one path commute, which is why the gate is a
    plain exponential of the integrated angle.
    """
    phid = float(path.phi.derivative(s))
    ct = float(np.cos(path.theta(s)))
    xhat0 = path.xhat(0.0)
    return 1j * phid * ct * tripod.rotation_generator(xhat0).astype(complex)


def gate_from_connection(path: ControlPath) -> np.ndarray:
    """Closed-form gate: rotation by the connection's integrated angle, omega_cos."""
    return ideal_gate(solid_angle(path).omega_cos)


def delta_omega_first_order(path: ControlPath, dx, s_grid) -> float:
    """First-order solid-angle response to a perturbation dx sampled on
    s_grid, a grid 0..1 or a physical-time grid 0..T.

    delta_omega = integral of (x^ cross dx^/ds) . dx / r ds. The cross-product
    kernel is tangent to the sphere, so purely radial perturbations drop out
    exactly; the 1/r converts the parameter-space displacement into an
    angular one.
    """
    dx = np.asarray(dx, dtype=float)
    # The integral is parametrization invariant, so map the grid to [0, 1].
    s = np.asarray(s_grid, dtype=float)
    s = s / s[-1]
    if dx.shape != (s.size, 3):
        raise ValueError("dx must have shape (len(grid), 3)")
    kern = angle_response_kernel(path, s)
    return float(np.trapezoid(np.sum(kern * dx, axis=1), s))


def angle_response_kernel(path: ControlPath, s) -> np.ndarray:
    """(x^ cross dx^/ds) / r on the given grid, shape (len(s), 3)."""
    s = np.asarray(s, dtype=float)
    xh = path.xhat(s)
    xhd = path.xhat_dot(s)
    return np.cross(xh, xhd) / path.radius(s)[:, None]


def delta_variance_analytic(path: ControlPath, spec, period: float) -> float:
    """Closed-form variance of the first-order angle error for noise
    described by `spec`, on a drive of the given physical period.

    Component-faithful form, with the three components integrated in one
    call: sum_i tau_i sigma_i^2 int ([x^ cross dx^/dt]_i / r)^2 dt. For
    isotropic noise this equals tau sigma^2 int |dx^/dt|^2 dt when r = 1.
    Only constant-amplitude paths are accepted; the white-noise reduction
    behind the formula is not available for time-varying r.
    """
    dense = np.linspace(0.0, 1.0, 1025)
    rr = path.radius(dense)
    if float(np.max(rr) - np.min(rr)) > 1e-10 * float(np.max(rr)):
        raise ValueError(
            "analytic variance requires a constant drive amplitude r(s); "
            "use Monte Carlo for varying-amplitude paths"
        )
    weights = np.asarray(spec.tau, dtype=float) * np.asarray(spec.sigma, dtype=float) ** 2
    per_axis = integrate_path(lambda s: angle_response_kernel(path, s).T ** 2)
    return float(np.dot(weights, per_axis)) / float(period)
