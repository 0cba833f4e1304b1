"""Exact numerical time evolution of the driven system.

The tripod Hamiltonian only couples the ground level to the excited
triplet, so conjugating by Q = diag(1, i, i, i) turns every exact step
exp(-iH dt) into a real rotation of R^4, read as the quaternions
v0 + v1 i + v2 j + v3 k. Each rotation is v -> a v conj(b) for a pair of
unit quaternions (a, b), and a product of steps is the pair of ordered
quaternion products, so a whole propagator is U = Q M Q^-1 with
M v = A v conj(B), A = a_n ... a_1 and B = b_n ... b_1. The core holds
each quaternion q0 + q1 i + q2 j + q3 k as the complex pair
(z1, z2) = (q0 + i q1, q2 + i q3), q = z1 + z2 j, so that one product
takes four complex multiplies.

Two independent integration routes share that core: the lab frame takes
the closed-form tripod step at midpoint drive values; the moving frame
splits each step into a frame rotation and a rescaled initial Hamiltonian,
both in closed form. Every step is exactly unitary, and the two routes
must agree through V(T) = R(T) U(T), which the tests enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tripod
from .paths import ControlPath


@dataclass(frozen=True)
class PropagationSettings:
    """Adiabatic parameter (inverse period, with the drive scale at 1) and
    time-grid density."""

    epsilon: float
    steps_per_unit_time: int = 20
    frame: str = "lab"

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        if self.steps_per_unit_time < 1:
            raise ValueError("steps_per_unit_time must be at least 1")
        if self.frame not in ("lab", "moving"):
            raise ValueError("frame must be 'lab' or 'moving'")


class StepLimitError(ValueError):
    """A propagation would need more than MAX_STEPS time steps."""


#: Largest step count one propagation may allocate. A lab step takes about
#: 190 B and a moving-frame step about 370 B at peak, so this is 1.6 GB and
#: 3.1 GB.
MAX_STEPS = 2 ** 23

#: Q = diag(1, i, i, i), which maps the real quaternion rotations to the
#: tripod steps: U = Q M Q^-1.
_Q = np.array([1.0, 1j, 1j, 1j])
#: The basis quaternions 1, i, j, k as complex pairs, one per column.
_BASIS = np.array([[1.0, 1j, 0.0, 0.0], [0.0, 0.0, 1.0, 1j]])


def _pair(q: np.ndarray) -> np.ndarray:
    """Complex pairs (z1, z2) = (q0 + i q1, q2 + i q3), so that q = z1 + z2 j,
    of real quaternion rows (q0, q1, q2, q3): shape (n, 4) -> (2, n).

    A C-contiguous q is viewed, not copied.
    """
    return np.ascontiguousarray(q, dtype=float).view(complex).T


def _unpair(z: np.ndarray) -> np.ndarray:
    """Real quaternion rows of complex pairs, shape (2, n) -> (n, 4); inverts
    _pair."""
    return np.ascontiguousarray(z.T).view(float)


def _conj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate of complex pairs: conj(z1 + z2 j) = conj(z1) - z2 j."""
    return np.stack([q[0].conj(), -q[1]])


def _qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product p q of complex pairs whose first axis holds
    (z1, z2); the other axes broadcast.

    Since j z = conj(z) j, (p1 + p2 j)(q1 + q2 j)
    = (p1 q1 - p2 conj(q2)) + (p1 q2 + p2 conj(q1)) j.
    """
    p1, p2 = p
    q1, q2 = q
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=complex)
    np.multiply(p1, q1, out=out[0])
    out[0] -= p2 * q2.conj()
    np.multiply(p1, q2, out=out[1])
    out[1] += p2 * q1.conj()
    return out


def _propagate(a: np.ndarray, b: np.ndarray, t_mid: np.ndarray) -> np.ndarray:
    """U = Q M Q^-1 for steps M_k v = a_k v conj(b_k), a and b complex pairs
    of shape (2, n).

    One pairwise tree reduction of the stacked pair gives A = a_n ... a_1
    and B = b_n ... b_1 together. A non-finite step poisons the products, so
    the check runs on them and only searches the steps when it fails.
    """
    steps = np.stack([a, b], axis=1)
    m = steps
    while m.shape[-1] > 1:
        n = m.shape[-1]
        even = n - (n % 2)
        paired = _qmul(m[..., 1:even:2], m[..., 0:even:2])
        if n % 2:
            paired = np.concatenate([paired, m[..., -1:]], axis=-1)
        m = paired
    if not np.all(np.isfinite(m)):
        k = int(np.argmin(np.isfinite(steps).all(axis=(0, 1))))
        raise ValueError(f"drive is not finite at step time t = {float(t_mid[k]):.6g} "
                         f"(step {k} of {t_mid.size})")
    # Column j of M is A e_j conj(B) for the basis quaternions e_j.
    big_m = _unpair(_qmul(_qmul(m[:, 0], _BASIS), _conj(m[:, 1]))).T
    return _Q[:, None] * big_m * _Q.conj()[None, :]


def _effective_steps(path: ControlPath, settings: PropagationSettings,
                     t_end: float) -> int:
    """Step count keeping dt <= min(1/spu, 0.1/max r).

    Raises StepLimitError when the count exceeds MAX_STEPS, before any step
    is allocated; the comparison runs in floats, so an infinite count gets
    the same error.
    """
    rr = path.radius(np.linspace(0.0, 1.0, 257))
    # A non-finite radius is reported by _propagate, with the step it hits.
    r_max = np.max(rr, where=np.isfinite(rr), initial=0.0)
    per_unit = max(settings.steps_per_unit_time, int(np.ceil(10.0 * r_max)))
    count = np.ceil(t_end * per_unit)
    if not count <= MAX_STEPS:
        raise StepLimitError(f"{count:.6g} time steps exceed the limit of "
                             f"MAX_STEPS = {MAX_STEPS}")
    return max(4, int(count))


def evolve(path: ControlPath, settings: PropagationSettings) -> np.ndarray:
    """Propagator over one period in the frame that settings.frame names:
    U(T) for "lab", V(T) for "moving"."""
    if settings.frame == "moving":
        return evolve_moving(path, settings)
    return evolve_lab(path, settings)


def evolve_lab(path: ControlPath, settings: PropagationSettings) -> np.ndarray:
    """Lab-frame propagator U(T), T = 1/epsilon, by midpoint exponentials."""
    return evolve_to_nominal(path, settings, 0.0)


def evolve_to_nominal(path: ControlPath, settings: PropagationSettings,
                      delta_t: float) -> np.ndarray:
    """Propagate a drive whose true period is T0 + delta_t but stop at the
    nominal time T0 = 1/epsilon.

    With delta_t = 0 this is exactly evolve_lab. Otherwise the loop has not
    closed at the stopping time, so the returned operator carries a residual
    frame rotation on top of the geometric gate.
    """
    t_nominal = 1.0 / settings.epsilon
    if abs(delta_t) >= 0.5 * t_nominal:
        raise ValueError("|delta_t| must be below half the nominal period")
    period = t_nominal + delta_t
    n = _effective_steps(path, settings, t_nominal)
    dt = t_nominal / n
    t_mid = (np.arange(n) + 0.5) * dt
    q = _pair(tripod.step_unitaries(path.x(t_mid / period), dt))
    return _propagate(q, _conj(q), t_mid)


def evolve_moving(path: ControlPath, settings: PropagationSettings) -> np.ndarray:
    """Moving-frame propagator V(T) solving i dV/dt = (eps A + alpha H0) V.

    A = i (dR/dt) R^-1 comes analytically from the frame angular velocity and
    exponentiates to a real rotation of the excited triplet, v -> p v conj(p)
    with p = cos(|rho|/2) + sin(|rho|/2) rho^ for rotation vector rho; alpha
    H0 is the initial Hamiltonian rescaled by r(s)/r(0) and exponentiates in
    closed form to the quaternion q. A symmetric split of the two keeps every
    step unitary and the whole scheme second order; the step
    v -> p (q (p v conj(p)) q) conj(p) is the pair (p q p, p conj(q) p).
    """
    eps = settings.epsilon
    t_end = 1.0 / eps
    n = _effective_steps(path, settings, t_end)
    dt = t_end / n
    t_mid = (np.arange(n) + 0.5) * dt
    s_mid = t_mid * eps

    rho = -0.5 * eps * dt * tripod.frame_angular_velocity(path, s_mid)
    angle = np.linalg.norm(rho, axis=1)
    # p as the pair (cos(a/2) + i s rho_x, s rho_y + i s rho_z), with
    # s = sin(a/2)/a written through sinc for small angles.
    scale = 0.5 * np.sinc(angle / (2.0 * np.pi))
    p = np.empty((2, n), dtype=complex)
    p[0].real = np.cos(0.5 * angle)
    p[0].imag = rho[:, 0] * scale
    p[1].real = rho[:, 1] * scale
    p[1].imag = rho[:, 2] * scale

    x0 = path.x(0.0)
    alpha = path.radius(s_mid) / float(path.radius(0.0))
    q = _pair(tripod.step_unitaries(np.broadcast_to(x0, (n, 3)), alpha * dt))
    # p q p and p conj(q) p share the part q0 p p and differ in the sign of
    # p q_vec p, with q_vec the vector part of q.
    shared = q[0].real * _qmul(p, p)
    q[0].real = 0.0
    vector = _qmul(_qmul(p, q), p)
    return _propagate(shared + vector, shared - vector, t_mid)


@dataclass(frozen=True, eq=False)
class ExtractedGate:
    """Dark-subspace block of a propagator in the initial tangent basis.

    leakage = 1 - tr(M^dag M)/2 is the probability lost from the dark plane;
    the angle estimate projects the block onto the nearest plane rotation
    and is only meaningful when leakage is small.
    """

    block: np.ndarray
    leakage: float
    angle_estimate: float
    adiabaticity_lost: bool


def dark_basis_matrix(path: ControlPath) -> np.ndarray:
    """4x2 matrix whose columns are e_theta(0), e_phi(0), embedded."""
    f = tripod.frame(float(path.theta(0.0)), float(path.phi(0.0)))
    return np.column_stack([tripod.embed3(f.etheta), tripod.embed3(f.ephi)])


def extract_logical_gate(u: np.ndarray, path: ControlPath) -> ExtractedGate:
    """Project a propagator onto the initial dark plane of the path."""
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise ValueError("propagator has non-finite entries")
    b = dark_basis_matrix(path).astype(complex)
    m = b.conj().T @ u @ b
    leakage = max(0.0, 1.0 - 0.5 * float(np.trace(m.conj().T @ m).real))
    re = m.real
    angle = float(np.arctan2(0.5 * (re[0, 1] - re[1, 0]), 0.5 * (re[0, 0] + re[1, 1])))
    return ExtractedGate(
        block=m,
        leakage=leakage,
        angle_estimate=angle,
        adiabaticity_lost=leakage > 0.1,
    )
