"""The four-level tripod model.

One ground level coupled to three degenerate excited levels by a real drive
vector x: H = x . b with b_i = |0><i| + |i><0|. The spectrum is {+r, -r, 0, 0}
with r = |x|; the two zero-energy (dark) states carry the logical qubit.

Basis order is (i0, i1, i2, i3) = (ground, excited triplet). Energies and
times are dimensionless: the drive scale rbar is set to 1, so the adiabatic
parameter is exactly 1/T for a drive of period T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def embed3(v) -> np.ndarray:
    """Embed a real 3-vector into C^4 with zero ground component."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def j_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation generators (J1, J2, J3) acting on the excited triplet.

    Real antisymmetric, zero on the ground row/column, with commutators
    [J_i, J_j] = -eps_ijk J_k exactly.
    """
    j1 = np.zeros((4, 4))
    j1[2, 3], j1[3, 2] = 1.0, -1.0
    j2 = np.zeros((4, 4))
    j2[3, 1], j2[1, 3] = 1.0, -1.0
    j3 = np.zeros((4, 4))
    j3[1, 2], j3[2, 1] = 1.0, -1.0
    return j1, j2, j3


def rotation_generator(v) -> np.ndarray:
    """The embedded generator J . v = v1 J1 + v2 J2 + v3 J3."""
    v = np.asarray(v, dtype=float)
    j1, j2, j3 = j_generators()
    return v[0] * j1 + v[1] * j2 + v[2] * j3


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal moving frame adapted to the unit sphere at (theta, phi);
    for array angles each vector is stacked on the last axis."""

    er: np.ndarray
    etheta: np.ndarray
    ephi: np.ndarray


def frame(theta, phi) -> Frame:
    """Spherical tangent frame: er radial, etheta/ephi tangent, right-handed.

    theta and phi are scalars or arrays of one shape.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return Frame(er=np.stack([st * cp, st * sp, ct], axis=-1),
                 etheta=np.stack([ct * cp, ct * sp, -st], axis=-1),
                 ephi=np.stack([-sp, cp, np.zeros_like(sp)], axis=-1))


def d_rotation_block(theta: float, phi: float) -> np.ndarray:
    """3x3 rotation whose rows are the frame vectors (etheta, ephi, er)."""
    f = frame(theta, phi)
    return np.array([f.etheta, f.ephi, f.er])


def d_rotation(theta: float, phi: float) -> np.ndarray:
    """Frame rotation 1 (+) D3 on C^4: its inverse maps i1, i2, i3 to
    etheta, ephi, er at (theta, phi)."""
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    out[1:, 1:] = d_rotation_block(theta, phi)
    return out


def r_rotation(path, s) -> np.ndarray:
    """Relative frame rotation R(s) = D(0)^-1 D(s) along a control path.

    R(0) is the identity; for unit-vector-periodic paths R(1) is the
    identity as well, and conjugating the initial Hamiltonian by R(s) (with
    the amplitude ratio r(s)/r(0)) reproduces the Hamiltonian at s.
    """
    d0 = d_rotation(float(path.theta(0.0)), float(path.phi(0.0)))
    ds = d_rotation(float(path.theta(s)), float(path.phi(s)))
    return d0.T @ ds


def frame_angular_velocity(path, s) -> np.ndarray:
    """Vector w(s) with (dR/ds) R(s)^-1 = J . w(s), from the path angles.

    In the instantaneous angles, dD/ds D^-1 = J . v with
    v = (-phi' sin(theta), theta', phi' cos(theta)); conjugation by D(0)
    rotates v by the initial frame block.
    """
    s = np.asarray(s, dtype=float)
    theta, thetad = path.theta._value_and_derivative(s)
    phid = path.phi.derivative(s)
    v = np.stack([-phid * np.sin(theta), thetad, phid * np.cos(theta)], axis=-1)
    d0 = d_rotation_block(float(path.theta(0.0)), float(path.phi(0.0)))
    return v @ d0


def step_unitaries(xs, dts) -> np.ndarray:
    """Exact steps exp(-i H(x) dt) as unit quaternions, one row per step, in
    the propagation core's complex-pair layout: shape (n, 2), complex.

    xs has shape (n, 3), dts is a scalar or has shape (n,). Each step is
    q = cos(r dt/2) - sin(r dt/2) x^, components (1, i, j, k); zero drive
    gives q = 1. With Q = diag(1, i, i, i), the real rotation
    Q^-1 exp(-iH dt) Q acts on v = v0 + v1 i + v2 j + v3 k as v -> q v q.
    Row k is the pair (q0 + i q1, q2 + i q3), so q = z1 + z2 j. The rows are
    the transpose of a C-contiguous (2, n) array, whose two rows are the
    z1 and z2 of every step: propagator's layout. 32 B per step.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[0]
    dts = np.broadcast_to(np.asarray(dts, dtype=float), (n,))
    r = np.sqrt(np.einsum("ni,ni->n", xs, xs))
    half = 0.5 * r * dts
    f = -np.sin(half) / np.where(r > 0.0, r, 1.0)
    out = np.empty((2, n), dtype=complex)
    np.cos(half, out=out[0].real)
    np.multiply(xs[:, 0], f, out=out[0].imag)
    np.multiply(xs[:, 1], f, out=out[1].real)
    np.multiply(xs[:, 2], f, out=out[1].imag)
    return out.T
