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

Each route hands the core a builder that turns an array of step times into
its step pairs. The core streams: it builds BLOCK steps at a time, reduces
them by the first levels of one pairwise tree over all steps, and finishes
the blocks' nodes in that same tree, so a propagation's memory stays the
same while its step count grows as 1/epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tripod
from .paths import ControlPath


class StepLimitError(ValueError):
    """A propagation would need more than MAX_STEPS time steps."""


#: Default time-grid density of a propagation, in steps per unit time.
STEPS_PER_UNIT_TIME = 20

#: Largest step count one propagation may take. Steps are built and reduced
#: BLOCK at a time, so the memory a propagation needs does not grow with the
#: count (1.6-2.2 MB traced peak in the lab frame, 2.5-3.1 MB in the moving
#: frame, from 4e4 steps to this cap). The cap bounds its run time instead,
#: about 1.7 s (lab) and 3.1 s (moving) on a 2-core Xeon, and the dense noise
#: grid that mc_delta builds whole for full propagation.
MAX_STEPS = 2 ** 23

#: Steps built and reduced at a time, so that a block's steps and its tree
#: stay in a 2 MiB L2 cache. It must be a power of two: then every full block
#: is an exact subtree of the pairwise tree over all steps, and so is every
#: full group of 2 ** BLOCK_LEVELS blocks that _propagate finishes together.
BLOCK = 2 ** 13

#: Tree levels each block is reduced by on its own, down to
#: BLOCK / 2 ** BLOCK_LEVELS = 32 nodes. A block's nodes after these levels,
#: or its product once it has one node left, are nodes of the tree over all
#: steps, so this sets the speed and not the bits.
BLOCK_LEVELS = 8

#: A gate leaking more than this has lost adiabaticity, and mc_delta
#: excludes a realization that leaks more.
LEAKAGE_LIMIT = 0.1

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
    # Per-call overhead dominates the tree's small last levels, once per
    # block; indexing and np.broadcast are the cheapest split and shape.
    p1, p2 = p[0], p[1]
    q1, q2 = q[0], q[1]
    out = np.empty(np.broadcast(p, q).shape, dtype=complex)
    np.multiply(p1, q1, out=out[0])
    out[0] -= p2 * q2.conj()
    np.multiply(p1, q2, out=out[1])
    out[1] += p2 * q1.conj()
    return out


def _tree_levels(m: np.ndarray, levels: int) -> np.ndarray:
    """Nodes of the pairwise tree over the last axis of complex pairs after
    its first `levels` levels: shape (2, ..., n) -> (2, ..., ceil(n / 2 ** levels)).

    Each level multiplies neighbours (2i, 2i + 1) into m_2i+1 m_2i and
    carries an odd last element up unchanged.
    """
    for _ in range(levels):
        n = m.shape[-1]
        if n == 1:
            break
        even = n - (n % 2)
        paired = _qmul(m[..., 1:even:2], m[..., 0:even:2])
        if n % 2:
            paired = np.concatenate([paired, m[..., -1:]], axis=-1)
        m = paired
    return m


def _tree_product(m: np.ndarray) -> np.ndarray:
    """Ordered product m_n ... m_1 along the last axis of complex pairs,
    shape (2, ..., n) -> (2, ...), by one pairwise tree."""
    return _tree_levels(m, m.shape[-1])[..., 0]


def _propagate(steps, n: int, dt: float) -> np.ndarray:
    """U = Q M Q^-1 for n steps M_k v = a_k v conj(b_k) at the midpoint
    times t_k = (k + 1/2) dt, where steps(t) returns the complex pairs
    (a, b), each of shape (2, len(t)), for an array t of step times.

    The steps are built BLOCK at a time, and each block is reduced by the
    first BLOCK_LEVELS levels of the pairwise tree over all n steps. One
    tree then finishes the nodes of 2 ** BLOCK_LEVELS blocks at a time,
    which fill one block's worth of pairs, and a last tree multiplies those
    group products; so the working set stays the same at any step count,
    and the small last levels of the tree, whose cost is per call, run once
    per group and not once per block. Every full block and every full group
    is an exact subtree of the tree over all n steps (see BLOCK), so the
    blocking does not change the order of any product. A non-finite step
    poisons the node above it, so the check runs on a block's nodes and
    only searches the block's steps when it fails.
    """
    nodes, groups = [], []
    for start in range(0, n, BLOCK):
        t = (np.arange(start, min(start + BLOCK, n)) + 0.5) * dt
        block = np.stack(steps(t), axis=1)
        nodes.append(_tree_levels(block, BLOCK_LEVELS))
        if not np.all(np.isfinite(nodes[-1])):
            k = int(np.argmin(np.isfinite(block).all(axis=(0, 1))))
            raise ValueError(f"drive is not finite at step time t = {float(t[k]):.6g} "
                             f"(step {start + k} of {n})")
        if len(nodes) == 2 ** BLOCK_LEVELS or start + BLOCK >= n:
            groups.append(_tree_product(np.concatenate(nodes, axis=-1)))
            nodes = []
    m = _tree_product(np.stack(groups, axis=-1))[..., None]
    # Column j of M is A e_j conj(B) for the basis quaternions e_j.
    big_m = _unpair(_qmul(_qmul(m[:, 0], _BASIS), _conj(m[:, 1]))).T
    return _Q[:, None] * big_m * _Q.conj()[None, :]


def _check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the adiabatic parameter is positive and finite."""
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def _effective_steps(path: ControlPath, epsilon: float,
                     steps_per_unit_time: int) -> int:
    """Step count over T = 1/epsilon keeping dt <= min(1/spu, 0.1/max r).

    Raises ValueError unless epsilon is positive and finite and spu is at
    least 1, and StepLimitError when the count exceeds MAX_STEPS, before any
    step is allocated; the comparison runs in floats, so an infinite count
    (or spu) gets the same error.
    """
    _check_epsilon(epsilon)
    if steps_per_unit_time < 1:
        raise ValueError("steps_per_unit_time must be at least 1")
    rr = path.radius(np.linspace(0.0, 1.0, 257))
    # A non-finite radius is reported by _propagate, with the step it hits.
    r_max = np.max(rr, where=np.isfinite(rr), initial=0.0)
    per_unit = max(steps_per_unit_time, int(np.ceil(10.0 * r_max)))
    count = np.ceil(1.0 / epsilon * per_unit)
    if not count <= MAX_STEPS:
        raise StepLimitError(f"{count:.6g} time steps exceed the limit of "
                             f"MAX_STEPS = {MAX_STEPS}")
    return max(4, int(count))


def evolve_lab(path: ControlPath, epsilon: float, *,
               steps_per_unit_time: int = STEPS_PER_UNIT_TIME,
               delta_t: float = 0.0) -> np.ndarray:
    """Lab-frame propagator U(T0), T0 = 1/epsilon, by midpoint exponentials,
    of a drive whose true period is T0 + delta_t.

    The drive is any object with x(s) and radius(s) on normalized time s: a
    ControlPath, or the perturbed drive paths.perturb returns. With
    delta_t != 0 the loop has not closed at the nominal stopping time T0,
    so the returned operator carries a residual frame rotation on top of
    the geometric gate.
    """
    n = _effective_steps(path, epsilon, steps_per_unit_time)
    t_nominal = 1.0 / epsilon
    if not np.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t!r}")
    if abs(delta_t) >= 0.5 * t_nominal:
        raise ValueError("|delta_t| must be below half the nominal period")
    period = t_nominal + delta_t
    dt = t_nominal / n

    def steps(t):
        q = _pair(tripod.step_unitaries(path.x(t / period), dt))
        return q, _conj(q)

    return _propagate(steps, n, dt)


def evolve_moving(path: ControlPath, epsilon: float, *,
                  steps_per_unit_time: int = STEPS_PER_UNIT_TIME) -> np.ndarray:
    """Moving-frame propagator V(T) solving i dV/dt = (eps A + alpha H0) V.

    A = i (dR/dt) R^-1 comes analytically from the frame angular velocity w
    and exponentiates over half a step to a real rotation of the excited
    triplet, v -> p v conj(p), with p = cos(eps dt |w|/4) - sin(eps dt |w|/4) w^:
    the closed-form tripod step tripod.step_unitaries(w, eps dt / 2). alpha
    H0 is the initial Hamiltonian rescaled by r(s)/r(0) and exponentiates in
    closed form to the quaternion q. A symmetric split of the two keeps every
    step unitary and the whole scheme second order; the step
    v -> p (q (p v conj(p)) q) conj(p) is the pair (p q p, p conj(q) p).
    """
    n = _effective_steps(path, epsilon, steps_per_unit_time)
    dt = 1.0 / epsilon / n
    x0 = path.x(0.0)
    r0 = float(path.radius(0.0))

    def steps(t):
        s_mid = t * epsilon
        w = tripod.frame_angular_velocity(path, s_mid)
        p = _pair(tripod.step_unitaries(w, 0.5 * epsilon * dt))
        alpha = path.radius(s_mid) / r0
        q = _pair(tripod.step_unitaries(np.broadcast_to(x0, (t.size, 3)), alpha * dt))
        return _qmul(_qmul(p, q), p), _qmul(_qmul(p, _conj(q)), p)

    return _propagate(steps, n, dt)


@dataclass(frozen=True, eq=False)
class ExtractedGate:
    """Dark-subspace block of a propagator in the initial tangent basis.

    leakage = 1 - tr(M^dag M)/2 is the probability lost from the dark plane;
    the angle estimate projects the block onto the nearest plane rotation
    and is only meaningful when leakage is small. On a loop that stops while
    still moving, noise leaves a bright amplitude at t = T that shifts the
    angle estimate linearly in sigma, and leakage does not separate that
    shift from the geometric one; see the README's Validity notes.
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
    """Project a propagator onto the initial dark plane of the path.

    A bare projection: bright amplitude left at t = T moves angle_estimate
    (see ExtractedGate).
    """
    return _gate_in_basis(u, dark_basis_matrix(path))


def _gate_in_basis(u: np.ndarray, basis: np.ndarray) -> ExtractedGate:
    """extract_logical_gate with the path's dark_basis_matrix given, so that
    an ensemble takes it once."""
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise ValueError("propagator has non-finite entries")
    b = basis.astype(complex)
    m = b.conj().T @ u @ b
    leakage = max(0.0, 1.0 - 0.5 * float(np.trace(m.conj().T @ m).real))
    re = m.real
    angle = float(np.arctan2(0.5 * (re[0, 1] - re[1, 0]), 0.5 * (re[0, 0] + re[1, 1])))
    return ExtractedGate(
        block=m,
        leakage=leakage,
        angle_estimate=angle,
        adiabaticity_lost=leakage > LEAKAGE_LIMIT,
    )
